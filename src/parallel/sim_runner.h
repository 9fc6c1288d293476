// SimRunner: fans independent simulation runs across a ThreadPool with
// deterministic, submission-ordered results.
//
// The repo's stochastic models (prices, availability, arrivals) carry lazily
// extended mutable caches, so model *instances* must never be shared between
// concurrent runs. The contract here makes that structural: each leg of a
// sweep is a closure that builds its own scenario (deterministic per seed,
// i.e. its own RNG streams), its own scheduler and its own engine/SimMetrics,
// and returns whatever the caller wants to aggregate. Results land in a slot
// per leg, so aggregation in leg order is bit-for-bit identical no matter how
// many workers ran the legs — `jobs = 1` executes inline with no pool at all
// and reproduces the historical serial behaviour exactly. Per-leg metric
// accumulators (RunningStats and friends) merge cleanly afterwards because
// they are parallel-combinable by design.
//
// A task that throws poisons only its own slot; run() and the indexed loops
// rethrow the first failure in leg order after every leg has finished.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

#include "util/annotations.h"

namespace grefar {

class SimRunner {
 public:
  /// `jobs` = worker count; 0 picks ThreadPool::default_concurrency().
  explicit SimRunner(std::size_t jobs = 0);

  std::size_t jobs() const { return jobs_; }

  /// Runs every task (in parallel for jobs > 1, inline in order for
  /// jobs == 1). Returns once all tasks finished; rethrows the first
  /// task exception in index order.
  GREFAR_DETERMINISTIC
  void run(std::vector<std::function<void()>>& tasks) const;

  /// Chunked indexed loop over [0, count): indices are handed to workers in
  /// fixed consecutive ranges of `chunk` via ThreadPool::submit_batch — one
  /// std::function per *loop task*, not per index. `fn(task, index)` receives
  /// the loop-task id (0 .. workers-1; always 0 on the serial path) so callers
  /// can keep worker-local arenas. Within a range, indices run in ascending
  /// order on one thread. jobs == 1 (or a single worker) executes inline on
  /// the calling thread, index order 0..count-1, no pool — the historical
  /// serial contract. Rethrows the first per-index exception in index order.
  GREFAR_DETERMINISTIC
  void for_each_index_tasked(
      std::size_t count,
      const std::function<void(std::size_t task, std::size_t index)>& fn,
      std::size_t chunk = 1) const;

  /// for_each_index_tasked without the loop-task id.
  GREFAR_DETERMINISTIC
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t index)>& fn,
                      std::size_t chunk = 1) const;

 private:
  std::size_t jobs_;
};

}  // namespace grefar

// The one parallel loop of the repo: a chunked, deterministic fan-out of
// indices over threads started and joined inside the call.
//
// Determinism is handled by the callers' data layout, not by the loop:
// every index writes only its own result slot and reads only immutable
// shared state (SweepEngine's materialized artifacts), so results
// aggregated in index order are bit-identical no matter how many threads
// ran them. `jobs = 1` runs inline on the calling thread, in index order,
// with no thread at all.
#pragma once

#include <cstddef>
#include <functional>

#include "util/annotations.h"

namespace grefar {

/// Runs fn(task, index) for every index in [0, count).
///
/// [0, count) is split into fixed ranges of `chunk` consecutive indices —
/// range k is [k*chunk, min((k+1)*chunk, count)), a pure function of
/// (count, chunk). min(jobs, num_ranges) loop tasks claim ranges through a
/// shared atomic ticket counter, each on its own std::thread. A claimed
/// range runs front to back, so indices within a range ascend on one
/// thread; which task runs a range is scheduling-dependent, which is why
/// `fn` receives its loop-task id (0 .. tasks-1) for task-local arenas.
///
/// `jobs` must be >= 1 (callers resolve "all CPUs" through
/// ThreadPool::default_concurrency()). With one task (jobs == 1, or a
/// single range) every index runs inline on the calling thread, in order
/// 0..count-1, with task id 0. Otherwise each task runs under a
/// private counter/profile registry, merged into the caller's in task order
/// after the join (obs/task_registries.h), so counter totals do not depend
/// on `jobs` or `chunk`.
///
/// An index that throws poisons only itself: every other index still runs,
/// and the first failure in index order is rethrown after the join.
GREFAR_DETERMINISTIC
void for_each_index_tasked(
    std::size_t count, std::size_t jobs, std::size_t chunk,
    const std::function<void(std::size_t task, std::size_t index)>& fn);

/// Scope of the usable-CPU count that `--jobs 0` resolves to; the loop
/// above starts its own threads, so nothing here is ever constructed.
struct ThreadPool {
  /// Usable CPUs: the sched_getaffinity CPU count where available (so
  /// cgroup / taskset limits in containerized CI are honored instead of
  /// oversubscribing the host), falling back to
  /// std::thread::hardware_concurrency(); always >= 1.
  static std::size_t default_concurrency();
};

}  // namespace grefar

// ThreadPool: a fixed-size worker pool for embarrassingly parallel sweeps.
//
// Deliberately work-stealing-free: tasks are pulled from a single FIFO queue
// under one mutex, which is ample for the coarse-grained jobs this repo fans
// out (whole simulation runs taking milliseconds to seconds each) and keeps
// the execution model easy to reason about. Determinism is achieved one
// level up — submitters write results into pre-assigned slots and aggregate
// in submission order — so the pool itself never has to order anything.
//
// Lifecycle guarantees:
//   * every submitted task runs exactly once (none lost, none duplicated);
//   * the destructor drains the queue — it blocks until all tasks, including
//     ones still queued, have finished, then joins the workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace grefar {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains all remaining tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; runs on some worker in FIFO pop order.
  void submit(std::function<void()> task);

  /// Chunked dynamic scheduling (DESIGN.md §16): partitions [0, count) into
  /// fixed ranges of `chunk` consecutive indices — range k is
  /// [k*chunk, min((k+1)*chunk, count)), a pure function of (count, chunk) —
  /// and spawns min(num_threads(), num_ranges) loop tasks that claim ranges
  /// through a shared atomic ticket counter. Each claimed range is executed
  /// front to back, so indices within a range always run in ascending order
  /// on one thread; which *thread* runs a range is scheduling-dependent,
  /// which is why `body` receives its loop-task id (0 .. tasks-1) for
  /// worker-local arenas rather than a range id.
  ///
  /// Blocks until every range ran (other concurrently submitted work may
  /// still be in flight). `body` must not throw;
  /// callers capture per-index failures themselves (see SimRunner). Returns
  /// the number of loop tasks spawned.
  std::size_t submit_batch(
      std::size_t count, std::size_t chunk,
      const std::function<void(std::size_t task, std::size_t begin,
                               std::size_t end)>& body);

  std::size_t num_threads() const { return workers_.size(); }

  /// Usable CPUs: the sched_getaffinity CPU count where available (so cgroup
  /// / taskset limits in containerized CI are honored instead of
  /// oversubscribing the host), falling back to
  /// std::thread::hardware_concurrency(); always >= 1.
  static std::size_t default_concurrency();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable task_ready_;  // signals workers
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace grefar

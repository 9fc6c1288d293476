#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#if defined(__linux__)
#include <sched.h>
#endif

#include "util/check.h"

namespace grefar {

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(num_threads, 1);
  workers_.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  // Workers only exit once the queue is empty (see worker_loop), so every
  // task submitted before destruction still runs.
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  GREFAR_CHECK(task != nullptr);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    GREFAR_CHECK_MSG(!stopping_, "submit() on a stopping ThreadPool");
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

std::size_t ThreadPool::submit_batch(
    std::size_t count, std::size_t chunk,
    const std::function<void(std::size_t task, std::size_t begin,
                             std::size_t end)>& body) {
  GREFAR_CHECK(body != nullptr);
  if (count == 0) return 0;
  chunk = std::max<std::size_t>(chunk, 1);
  const std::size_t num_ranges = (count + chunk - 1) / chunk;
  const std::size_t num_tasks = std::min(num_threads(), num_ranges);

  // Shared batch state lives on the heap so loop tasks stay valid even if the
  // caller's frame unwinds (it can't here — we block below — but the pool
  // queue owns copies of the closures either way).
  struct BatchState {
    std::atomic<std::size_t> ticket{0};
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining;
  };
  auto state = std::make_shared<BatchState>();
  state->remaining = num_tasks;

  for (std::size_t t = 0; t < num_tasks; ++t) {
    submit([state, count, chunk, num_ranges, t, &body] {
      for (;;) {
        const std::size_t range =
            state->ticket.fetch_add(1, std::memory_order_relaxed);
        if (range >= num_ranges) break;
        const std::size_t begin = range * chunk;
        const std::size_t end = std::min(begin + chunk, count);
        body(t, begin, end);
      }
      {
        std::unique_lock<std::mutex> lock(state->mutex);
        --state->remaining;
      }
      state->done.notify_one();
    });
  }

  std::unique_lock<std::mutex> lock(state->mutex);
  state->done.wait(lock, [&] { return state->remaining == 0; });
  return num_tasks;
}

std::size_t ThreadPool::default_concurrency() {
#if defined(__linux__)
  // Honor cgroup cpusets / taskset masks: in containerized CI the affinity
  // mask is often far smaller than the host's hardware_concurrency, and
  // spawning a worker per host core just thrashes.
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int cpus = CPU_COUNT(&mask);
    if (cpus > 0) return static_cast<std::size_t>(cpus);
  }
#endif
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace grefar

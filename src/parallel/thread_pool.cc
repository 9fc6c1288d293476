#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "obs/counters.h"
#include "obs/profile.h"
#include "obs/task_registries.h"
#include "util/check.h"

namespace grefar {

void for_each_index_tasked(
    std::size_t count, std::size_t jobs, std::size_t chunk,
    const std::function<void(std::size_t task, std::size_t index)>& fn) {
  GREFAR_CHECK(fn != nullptr);
  GREFAR_CHECK(jobs >= 1);
  if (count == 0) return;
  chunk = std::max<std::size_t>(chunk, 1);
  const std::size_t num_ranges = (count + chunk - 1) / chunk;
  const std::size_t num_tasks = std::min(jobs, num_ranges);
  std::vector<std::exception_ptr> errors(count);
  const auto run_index = [&fn, &errors](std::size_t task, std::size_t i) {
    try {
      fn(task, i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  if (num_tasks <= 1) {
    // Serial path: inline, in order, on the calling thread, whose obs
    // registries stay active.
    for (std::size_t i = 0; i < count; ++i) run_index(0, i);
  } else {
    // Worker threads never see the caller's registries (they are
    // thread-local): each task gets a private pair, merged in task order
    // after the join. Counters are uint64 sums and gauges maxes, so the
    // totals equal the serial path's whichever task claimed which range.
    obs::TaskRegistries regs(num_tasks);
    std::atomic<std::size_t> ticket{0};
    const auto task_body = [&](std::size_t task) {
      obs::CountersScope counters(regs.counters(task));
      obs::ProfileScope profile(regs.profile(task));
      for (;;) {
        const std::size_t range = ticket.fetch_add(1, std::memory_order_relaxed);
        if (range >= num_ranges) break;
        const std::size_t end = std::min((range + 1) * chunk, count);
        for (std::size_t i = range * chunk; i < end; ++i) run_index(task, i);
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(num_tasks);
    try {
      for (std::size_t task = 0; task < num_tasks; ++task) {
        threads.emplace_back(task_body, task);
      }
    } catch (...) {
      // A thread that failed to start leaves its ranges to the started
      // ones; join them before the error leaves the call.
      for (std::thread& thread : threads) thread.join();
      throw;
    }
    for (std::thread& thread : threads) thread.join();
    regs.merge_ordered();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
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

}  // namespace grefar

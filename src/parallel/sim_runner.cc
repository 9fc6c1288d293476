#include "parallel/sim_runner.h"

#include <algorithm>

#include "obs/counters.h"
#include "obs/profile.h"
#include "obs/task_registries.h"
#include "parallel/thread_pool.h"

namespace grefar {

SimRunner::SimRunner(std::size_t jobs)
    : jobs_(jobs == 0 ? ThreadPool::default_concurrency() : jobs) {}

void SimRunner::run(std::vector<std::function<void()>>& tasks) const {
  for_each_index(tasks.size(),
                 [&tasks](std::size_t i) { tasks[i](); });
}

void SimRunner::for_each_index_tasked(
    std::size_t count,
    const std::function<void(std::size_t task, std::size_t index)>& fn,
    std::size_t chunk) const {
  if (count == 0) return;
  chunk = std::max<std::size_t>(chunk, 1);
  const std::size_t num_ranges = (count + chunk - 1) / chunk;
  const std::size_t workers = std::min(jobs_, num_ranges);
  std::vector<std::exception_ptr> errors(count);
  if (jobs_ <= 1 || workers <= 1) {
    // Serial path: inline, in order, on the calling thread, no pool — the
    // historical behaviour (and the caller's obs registries stay active).
    for (std::size_t i = 0; i < count; ++i) {
      try {
        fn(0, i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  } else {
    // Observability: worker threads never see the caller's registries
    // (they are thread-local). When the caller has one active, each *loop
    // task* gets a private registry, merged back in task order below —
    // counters are uint64 sums and gauges maxes, so the totals are
    // bit-identical to the serial path (and to any other jobs/chunk split)
    // no matter how the ticket counter hands ranges to tasks. The
    // snapshot/private-pair/ordered-merge pattern lives in obs (raw registry
    // merges outside src/obs violate the counter-discipline contract).
    obs::TaskRegistries regs(workers);
    ThreadPool pool(workers);
    pool.submit_batch(count, chunk,
                      [&fn, &errors, &regs](std::size_t task, std::size_t begin,
                                            std::size_t end) {
                        obs::CountersScope counters(regs.counters(task));
                        obs::ProfileScope profile(regs.profile(task));
                        for (std::size_t i = begin; i < end; ++i) {
                          try {
                            fn(task, i);
                          } catch (...) {
                            errors[i] = std::current_exception();
                          }
                        }
                      });
    regs.merge_ordered();
  }
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void SimRunner::for_each_index(std::size_t count,
                               const std::function<void(std::size_t index)>& fn,
                               std::size_t chunk) const {
  for_each_index_tasked(
      count, [&fn](std::size_t /*task*/, std::size_t i) { fn(i); }, chunk);
}

}  // namespace grefar

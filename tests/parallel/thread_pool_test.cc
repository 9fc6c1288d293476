// Tests for the parallel loop (parallel/thread_pool.h): every index runs
// exactly once, jobs = 1 runs inline in order, failures rethrow in index
// order, and jobs = 1 and jobs = N produce bit-identical metrics because
// every leg owns its models end to end.
#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include <gtest/gtest.h>

#include "core/grefar.h"
#include "parallel/thread_pool.h"
#include "scenario/paper_scenario.h"
#include "sim/engine.h"

namespace grefar {
namespace {

TEST(ThreadPoolTest, SubmitBatchCoversEveryIndexExactlyOnce) {
  for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                            std::size_t{200}}) {
    constexpr std::size_t kCount = 100;
    constexpr std::size_t kJobs = 4;
    std::vector<std::atomic<int>> hits(kCount);
    const std::size_t num_ranges = (kCount + chunk - 1) / chunk;
    for_each_index_tasked(kCount, kJobs, chunk,
                          [&](std::size_t task, std::size_t i) {
                            EXPECT_LT(task, std::min(kJobs, num_ranges));
                            ASSERT_LT(i, kCount);
                            hits[i].fetch_add(1, std::memory_order_relaxed);
                          });
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "chunk " << chunk << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, SubmitBatchHandlesEmptyAndOversizedChunks) {
  int calls = 0;
  // count == 0: no ranges, returns without touching the body.
  for_each_index_tasked(0, 2, 4, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // chunk > count: one range spanning everything, so one task, inline.
  const auto caller = std::this_thread::get_id();
  std::vector<int> seen;
  for_each_index_tasked(3, 2, 100, [&](std::size_t task, std::size_t i) {
    EXPECT_EQ(task, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    seen.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
}

TEST(ThreadPoolTest, DefaultConcurrencyMatchesAffinityMask) {
  std::size_t n = ThreadPool::default_concurrency();
  EXPECT_GE(n, 1u);
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  EXPECT_EQ(n, static_cast<std::size_t>(CPU_COUNT(&set)));
#endif
}

// The SimRunnerTest suite keeps the name of the class whose method this
// loop used to be, so each test's history stays continuous.

TEST(SimRunnerTest, MapIsIdenticalAtAnyChunkSize) {
  std::vector<std::size_t> expected(37);
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i * 3 + 1;
  for (std::size_t jobs : {std::size_t{4}, std::size_t{8}}) {
    for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      std::vector<std::size_t> got(37);
      for_each_index_tasked(37, jobs, chunk,
                            [&got](std::size_t, std::size_t i) { got[i] = i * 3 + 1; });
      EXPECT_EQ(got, expected) << "jobs " << jobs << " chunk " << chunk;
    }
  }
}

// jobs == 1 is the serial contract: every index runs inline on the calling
// thread, in ascending order, with loop-task id 0 and no thread started.
TEST(SimRunnerTest, SingleJobRunsInlineInOrder) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  for_each_index_tasked(20, /*jobs=*/1, /*chunk=*/7,
                        [&](std::size_t task, std::size_t index) {
                          EXPECT_EQ(task, 0u);
                          EXPECT_EQ(std::this_thread::get_id(), caller);
                          order.push_back(index);
                        });
  ASSERT_EQ(order.size(), 20u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(SimRunnerTest, ForEachIndexTaskedRethrowsFirstFailureInIndexOrder) {
  try {
    for_each_index_tasked(10, /*jobs=*/4, /*chunk=*/2,
                          [](std::size_t, std::size_t index) {
                            if (index == 3 || index == 7) {
                              throw std::runtime_error("index " +
                                                       std::to_string(index));
                            }
                          });
    FAIL() << "expected for_each_index_tasked to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 3");
  }
}

// The serial path keeps running after a failure too: every leg runs, then
// the first failure in leg order is rethrown.
TEST(SimRunnerTest, RethrowsFirstFailureInLegOrder) {
  std::vector<std::size_t> ran;
  try {
    for_each_index_tasked(4, /*jobs=*/1, /*chunk=*/1,
                          [&ran](std::size_t, std::size_t leg) {
                            ran.push_back(leg);
                            if (leg == 1 || leg == 2) {
                              throw std::runtime_error("leg " + std::to_string(leg) +
                                                       " failed");
                            }
                          });
    FAIL() << "expected for_each_index_tasked to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "leg 1 failed");
  }
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3}));
}

// The headline contract: fanning legs over 4 threads yields metrics
// bit-identical to the serial run, because each leg rebuilds its scenario
// (and thus its RNG streams) from the same seed.
TEST(SimRunnerTest, ParallelRunMatchesSerialBitForBit) {
  constexpr std::int64_t kHorizon = 60;
  constexpr std::uint64_t kSeed = 42;
  const std::vector<double> v_values = {2.0, 7.5, 30.0};

  auto run_with_jobs = [&](std::size_t jobs) {
    std::vector<std::unique_ptr<SimulationEngine>> engines(v_values.size());
    for_each_index_tasked(v_values.size(), jobs, 1, [&](std::size_t, std::size_t leg) {
      PaperScenario scenario = make_paper_scenario(kSeed);
      auto scheduler = std::make_shared<GreFarScheduler>(
          scenario.config, paper_grefar_params(v_values[leg], 100.0));
      auto engine = make_scenario_engine(scenario, std::move(scheduler));
      engine->run(kHorizon);
      engines[leg] = std::move(engine);
    });
    return engines;
  };

  auto serial = run_with_jobs(1);
  auto parallel = run_with_jobs(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t leg = 0; leg < serial.size(); ++leg) {
    const auto& ms = serial[leg]->metrics();
    const auto& mp = parallel[leg]->metrics();
    EXPECT_EQ(ms.final_average_energy_cost(), mp.final_average_energy_cost())
        << "leg " << leg;
    EXPECT_EQ(ms.final_average_fairness(), mp.final_average_fairness())
        << "leg " << leg;
    EXPECT_EQ(ms.mean_delay(), mp.mean_delay()) << "leg " << leg;
    EXPECT_EQ(ms.delay_p95(), mp.delay_p95()) << "leg " << leg;
  }
}

}  // namespace
}  // namespace grefar

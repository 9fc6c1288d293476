#include "baselines/baselines.h"

#include <gtest/gtest.h>

#include "price/price_model.h"
#include "sim/engine.h"
#include "workload/arrival_process.h"

namespace grefar {
namespace {

ClusterConfig two_dc_config() {
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc1", {10}}, {"dc2", {10}}};
  c.accounts = {{"a", 1.0}};
  c.job_types = {{"j", 1.0, {0, 1}, 0}};
  return c;
}

SlotObservation obs_with(const ClusterConfig& c, double Q, double q0, double q1,
                         std::vector<double> prices = {0.5, 0.5}) {
  SlotObservation obs;
  obs.slot = 0;
  obs.prices = std::move(prices);
  obs.availability = Matrix<std::int64_t>(2, 1);
  obs.availability(0, 0) = c.data_centers[0].installed[0];
  obs.availability(1, 0) = c.data_centers[1].installed[0];
  obs.central_queue = {Q};
  obs.dc_queue = MatrixD(2, 1);
  obs.dc_queue(0, 0) = q0;
  obs.dc_queue(1, 0) = q1;
  return obs;
}

TEST(Always, RoutesEveryQueuedJob) {
  AlwaysScheduler s(two_dc_config());
  auto action = s.decide(obs_with(two_dc_config(), 6.0, 0.0, 0.0));
  EXPECT_DOUBLE_EQ(action.route(0, 0) + action.route(1, 0), 6.0);
}

TEST(Always, BalancesBySpareCapacity) {
  AlwaysScheduler s(two_dc_config());
  // dc1 already holds 8 jobs of work: spare 2 vs dc2 spare 10.
  auto action = s.decide(obs_with(two_dc_config(), 4.0, 8.0, 0.0));
  EXPECT_GT(action.route(1, 0), action.route(0, 0));
}

TEST(Always, ProcessesEverythingUpToCapacity) {
  AlwaysScheduler s(two_dc_config());
  auto action = s.decide(obs_with(two_dc_config(), 0.0, 4.0, 0.0));
  EXPECT_DOUBLE_EQ(action.process(0, 0), 4.0);
  // Over capacity: clamp to 10.
  auto big = s.decide(obs_with(two_dc_config(), 0.0, 25.0, 0.0));
  EXPECT_DOUBLE_EQ(big.process(0, 0), 10.0);
}

TEST(Always, IgnoresPrices) {
  AlwaysScheduler s(two_dc_config());
  auto cheap = s.decide(obs_with(two_dc_config(), 0.0, 4.0, 0.0, {0.01, 0.01}));
  auto expensive = s.decide(obs_with(two_dc_config(), 0.0, 4.0, 0.0, {10.0, 10.0}));
  EXPECT_DOUBLE_EQ(cheap.process(0, 0), expensive.process(0, 0));
}

TEST(CheapestFirst, RoutesToCheapestEligibleDc) {
  ClusterConfig c = two_dc_config();
  CheapestFirstScheduler s(c);
  auto action = s.decide(obs_with(c, 4.0, 0.0, 0.0, {0.9, 0.2}));
  EXPECT_DOUBLE_EQ(action.route(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(action.route(0, 0), 0.0);
}

TEST(CheapestFirst, SpillsOverWhenCheapDcIsFull) {
  ClusterConfig c = two_dc_config();
  c.data_centers[1].installed = {3};  // tiny cheap DC
  CheapestFirstScheduler s(c);
  auto action = s.decide(obs_with(c, 6.0, 0.0, 0.0, {0.9, 0.2}));
  // availability for dc2 is 3 in the obs helper? -> rebuild obs:
  SlotObservation obs = obs_with(c, 6.0, 0.0, 0.0, {0.9, 0.2});
  obs.availability(1, 0) = 3;
  action = s.decide(obs);
  EXPECT_DOUBLE_EQ(action.route(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(action.route(0, 0), 3.0);
}

TEST(Random, RoutesAllJobsAmongEligibleDcs) {
  RandomScheduler s(two_dc_config(), 42);
  auto action = s.decide(obs_with(two_dc_config(), 10.0, 0.0, 0.0));
  EXPECT_DOUBLE_EQ(action.route(0, 0) + action.route(1, 0), 10.0);
}

TEST(Random, DeterministicPerSeed) {
  RandomScheduler a(two_dc_config(), 7);
  RandomScheduler b(two_dc_config(), 7);
  auto obs = obs_with(two_dc_config(), 10.0, 0.0, 0.0);
  auto action_a = a.decide(obs);
  auto action_b = b.decide(obs);
  EXPECT_TRUE(action_a.route == action_b.route);
}

TEST(LocalOnly, PinsToFirstEligibleDc) {
  ClusterConfig c = two_dc_config();
  c.job_types[0].eligible_dcs = {1, 0};
  LocalOnlyScheduler s(c);
  auto action = s.decide(obs_with(c, 5.0, 0.0, 0.0));
  EXPECT_DOUBLE_EQ(action.route(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(action.route(0, 0), 0.0);
}

TEST(BaselinesInEngine, AlwaysHasUnitAverageDelay) {
  // The paper: "the average delay is expected to be one" for Always.
  ClusterConfig c = two_dc_config();
  auto prices = std::make_shared<ConstantPriceModel>(std::vector<double>{0.5, 0.5});
  auto avail = std::make_shared<FullAvailability>(c.data_centers);
  auto arr = std::make_shared<ConstantArrivals>(std::vector<std::int64_t>{6});
  auto sched = std::make_shared<AlwaysScheduler>(c);
  SimulationEngine engine(c, prices, avail, arr, sched);
  engine.run(50);
  const auto& m = engine.metrics();
  double total_delay = 0.0, total_jobs = 0.0;
  for (std::size_t i = 0; i < 2; ++i) {
    total_delay += m.dc_delay_sum[i].sum();
    total_jobs += m.dc_completions[i].sum();
  }
  EXPECT_NEAR(total_delay / total_jobs, 1.0, 1e-9);
  // All arrived jobs (except the last slot's) completed.
  EXPECT_NEAR(total_jobs, 6.0 * 49, 1e-9);
}

TEST(BaselinesInEngine, AllBaselinesDrainTheQueue) {
  ClusterConfig c = two_dc_config();
  auto prices = std::make_shared<ConstantPriceModel>(std::vector<double>{0.5, 0.5});
  auto avail = std::make_shared<FullAvailability>(c.data_centers);
  auto arr = std::make_shared<ConstantArrivals>(std::vector<std::int64_t>{5});
  std::vector<std::shared_ptr<Scheduler>> schedulers = {
      std::make_shared<AlwaysScheduler>(c),
      std::make_shared<CheapestFirstScheduler>(c),
      std::make_shared<RandomScheduler>(c, 3),
      std::make_shared<LocalOnlyScheduler>(c),
  };
  for (auto& sched : schedulers) {
    SimulationEngine engine(c, prices, avail, arr, sched);
    engine.run(40);
    // Stable: queues stay bounded near the per-slot arrival batch.
    double backlog = engine.central_queue_length(0) +
                     engine.dc_queue_length(0, 0) + engine.dc_queue_length(1, 0);
    EXPECT_LE(backlog, 3 * 5.0 + 1e-9) << sched->name();
  }
}

TEST(PriceThreshold, ProcessesOnlyBelowThreshold) {
  PriceThresholdScheduler s(two_dc_config(), /*threshold=*/0.4);
  auto cheap = s.decide(obs_with(two_dc_config(), 0.0, 4.0, 0.0, {0.3, 0.3}));
  EXPECT_DOUBLE_EQ(cheap.process(0, 0), 4.0);
  auto expensive = s.decide(obs_with(two_dc_config(), 0.0, 4.0, 0.0, {0.5, 0.5}));
  EXPECT_DOUBLE_EQ(expensive.process(0, 0), 0.0);
}

TEST(PriceThreshold, PerDcDecision) {
  PriceThresholdScheduler s(two_dc_config(), 0.4);
  auto action = s.decide(obs_with(two_dc_config(), 0.0, 4.0, 4.0, {0.5, 0.3}));
  EXPECT_DOUBLE_EQ(action.process(0, 0), 0.0);  // DC1 too expensive
  EXPECT_DOUBLE_EQ(action.process(1, 0), 4.0);  // DC2 cheap enough
}

TEST(PriceThreshold, BacklogSafetyValveFires) {
  // Queue of 45 work > 4x capacity (40): forced processing despite price.
  PriceThresholdScheduler s(two_dc_config(), 0.4, /*backlog_factor=*/4.0);
  auto action = s.decide(obs_with(two_dc_config(), 0.0, 45.0, 0.0, {0.9, 0.9}));
  EXPECT_GT(action.process(0, 0), 0.0);
}

TEST(PriceThreshold, RoutesEverythingLikeCheapestFirst) {
  PriceThresholdScheduler s(two_dc_config(), 0.4);
  auto action = s.decide(obs_with(two_dc_config(), 6.0, 0.0, 0.0, {0.9, 0.2}));
  EXPECT_DOUBLE_EQ(action.route(1, 0), 6.0);
}

TEST(PriceThreshold, StableInClosedLoop) {
  ClusterConfig c = two_dc_config();
  auto prices = std::make_shared<ConstantPriceModel>(std::vector<double>{0.9, 0.9});
  auto avail = std::make_shared<FullAvailability>(c.data_centers);
  auto arr = std::make_shared<ConstantArrivals>(std::vector<std::int64_t>{5});
  // Threshold below the constant price: only the safety valve processes.
  auto sched = std::make_shared<PriceThresholdScheduler>(c, 0.4, 2.0);
  SimulationEngine engine(c, prices, avail, arr, sched);
  engine.run(300);
  double backlog = engine.central_queue_length(0) + engine.dc_queue_length(0, 0) +
                   engine.dc_queue_length(1, 0);
  EXPECT_LT(backlog, 200.0);  // bounded by the valve, not growing ~5*300
}

TEST(PriceThreshold, RejectsBadParameters) {
  EXPECT_THROW(PriceThresholdScheduler(two_dc_config(), 0.0), ContractViolation);
  EXPECT_THROW(PriceThresholdScheduler(two_dc_config(), 0.4, -1.0),
               ContractViolation);
}

TEST(DelayPercentiles, TrackCompletions) {
  ClusterConfig c = two_dc_config();
  auto prices = std::make_shared<ConstantPriceModel>(std::vector<double>{0.5, 0.5});
  auto avail = std::make_shared<FullAvailability>(c.data_centers);
  auto arr = std::make_shared<ConstantArrivals>(std::vector<std::int64_t>{6});
  auto sched = std::make_shared<AlwaysScheduler>(c);
  SimulationEngine engine(c, prices, avail, arr, sched);
  engine.run(60);
  const auto& m = engine.metrics();
  // Always completes everything one slot after arrival.
  EXPECT_GT(m.delay_stats.count(), 0);
  EXPECT_NEAR(static_cast<double>(m.delay_stats.sum()) /
                  static_cast<double>(m.delay_stats.count()),
              1.0, 1e-9);
  EXPECT_NEAR(m.delay_p50(), 1.0, 1e-9);
  EXPECT_NEAR(m.delay_p99(), 1.0, 1e-9);
}

TEST(Names, AreStable) {
  ClusterConfig c = two_dc_config();
  EXPECT_EQ(AlwaysScheduler(c).name(), "Always");
  EXPECT_EQ(CheapestFirstScheduler(c).name(), "CheapestFirst");
  EXPECT_EQ(RandomScheduler(c, 1).name(), "Random");
  EXPECT_EQ(LocalOnlyScheduler(c).name(), "LocalOnly");
  EXPECT_EQ(PriceThresholdScheduler(c, 0.35).name(), "PriceThreshold(0.350)");
}

}  // namespace
}  // namespace grefar

#include "core/grefar.h"
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/per_slot_solvers.h"
#include "obs/trace_scope.h"
#include "sim/engine.h"
#include "support/fixtures.h"
#include "util/check.h"

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

SlotObservation obs_with(double Q, double q0, double q1, double price0 = 0.5,
                         double price1 = 0.5) {
  SlotObservation obs;
  obs.slot = 0;
  obs.prices = {price0, price1};
  obs.availability = Matrix<std::int64_t>(2, 1);
  obs.availability(0, 0) = 10;
  obs.availability(1, 0) = 10;
  obs.central_queue = {Q};
  obs.dc_queue = MatrixD(2, 1);
  obs.dc_queue(0, 0) = q0;
  obs.dc_queue(1, 0) = q1;
  return obs;
}

GreFarParams make_params(double V, double beta = 0.0) {
  GreFarParams p;
  p.V = V;
  p.beta = beta;
  p.r_max = 100.0;
  p.h_max = 100.0;
  return p;
}

TEST(GreFar, NameEncodesParameters) {
  GreFarScheduler s(two_dc_config(), make_params(7.5, 100.0));
  EXPECT_EQ(s.name(), "GreFar(V=7.50, beta=100.0)");
}

TEST(GreFar, RoutesToShorterQueuesOnly) {
  GreFarScheduler s(two_dc_config(), make_params(1.0));
  // Q = 5; q0 = 2 (< Q, beneficial), q1 = 9 (> Q, not beneficial).
  auto action = s.decide(obs_with(5.0, 2.0, 9.0));
  EXPECT_GT(action.route(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(action.route(1, 0), 0.0);
}

TEST(GreFar, RoutingClampsToCentralQueue) {
  GreFarScheduler s(two_dc_config(), make_params(1.0));
  auto action = s.decide(obs_with(5.0, 0.0, 0.0));
  EXPECT_LE(action.route(0, 0) + action.route(1, 0), 5.0 + 1e-9);
}

TEST(GreFar, RoutingPrefersShortestDcQueue) {
  GreFarParams p = make_params(1.0);
  p.r_max = 3.0;  // forces spill-over to the second-best DC
  GreFarScheduler s(two_dc_config(), p);
  auto action = s.decide(obs_with(5.0, 1.0, 2.0));
  EXPECT_DOUBLE_EQ(action.route(0, 0), 3.0);  // shortest queue first, r_max cap
  EXPECT_DOUBLE_EQ(action.route(1, 0), 2.0);  // remainder
}

TEST(GreFar, NoRoutingWhenAllDcQueuesLonger) {
  GreFarScheduler s(two_dc_config(), make_params(1.0));
  auto action = s.decide(obs_with(1.0, 5.0, 7.0));
  EXPECT_DOUBLE_EQ(action.route(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(action.route(1, 0), 0.0);
}

TEST(GreFar, LiteralModeSaturatesAllBeneficialDestinations) {
  GreFarParams p = make_params(1.0);
  p.clamp_to_queue = false;
  p.r_max = 4.0;
  GreFarScheduler s(two_dc_config(), p);
  auto action = s.decide(obs_with(5.0, 1.0, 2.0));
  EXPECT_DOUBLE_EQ(action.route(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(action.route(1, 0), 4.0);
}

TEST(GreFar, ProcessesWhenPriceLowRelativeToQueue) {
  GreFarScheduler s(two_dc_config(), make_params(4.0));
  // Threshold q > V * phi * (p/s) * d = 4 * 0.5 = 2.
  auto low = s.decide(obs_with(0.0, 3.0, 0.0));
  EXPECT_GT(low.process(0, 0), 0.0);
  auto high = s.decide(obs_with(0.0, 1.0, 0.0));
  EXPECT_DOUBLE_EQ(high.process(0, 0), 0.0);
}

TEST(GreFar, LargerVWaitsForCheaperPrices) {
  // Same queue, same price: V = 1 processes, V = 100 defers.
  GreFarScheduler eager(two_dc_config(), make_params(1.0));
  GreFarScheduler patient(two_dc_config(), make_params(100.0));
  auto obs = obs_with(0.0, 3.0, 0.0);
  EXPECT_GT(eager.decide(obs).process(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(patient.decide(obs).process(0, 0), 0.0);
}

TEST(GreFar, PriceDropTriggersProcessing) {
  GreFarScheduler s(two_dc_config(), make_params(10.0));
  // Threshold price: q/d / (V * p/s) = 3 / 10 = 0.3.
  EXPECT_DOUBLE_EQ(s.decide(obs_with(0.0, 3.0, 0.0, 0.45, 0.45)).process(0, 0), 0.0);
  EXPECT_GT(s.decide(obs_with(0.0, 3.0, 0.0, 0.25, 0.45)).process(0, 0), 0.0);
}

TEST(GreFar, ProcessingNeverExceedsQueueWhenClamped) {
  GreFarScheduler s(two_dc_config(), make_params(0.1));
  auto action = s.decide(obs_with(0.0, 4.0, 2.0));
  EXPECT_LE(action.process(0, 0), 4.0 + 1e-9);
  EXPECT_LE(action.process(1, 0), 2.0 + 1e-9);
}

TEST(GreFar, HonorsHMax) {
  GreFarParams p = make_params(0.0);
  p.h_max = 1.5;
  GreFarScheduler s(two_dc_config(), p);
  auto action = s.decide(obs_with(0.0, 4.0, 0.0));
  EXPECT_LE(action.process(0, 0), 1.5 + 1e-9);
}

/// Two DCs, four job types over two accounts with unequal gammas: enough
/// structure that the fairness term moves the beta > 0 optimum off the
/// greedy point.
ClusterConfig fair_config() {
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}, {"eco", 0.6, 0.5}};
  c.data_centers = {{"dc1", {6, 4}}, {"dc2", {5, 6}}};
  c.accounts = {{"a", 0.7}, {"b", 0.3}};
  c.job_types = {{"j0", 1.0, {0, 1}, 0},
                 {"j1", 2.0, {0}, 1},
                 {"j2", 0.5, {1}, 1},
                 {"j3", 1.5, {0, 1}, 0}};
  return c;
}

SlotObservation fair_obs(std::int64_t slot) {
  SlotObservation obs;
  obs.slot = slot;
  obs.prices = {0.4 + 0.1 * static_cast<double>(slot), 0.6};
  obs.availability = Matrix<std::int64_t>(2, 2);
  obs.availability(0, 0) = 6;
  obs.availability(0, 1) = 4;
  obs.availability(1, 0) = 5;
  obs.availability(1, 1) = 3 + slot;
  obs.central_queue = {4.0, 3.0, 5.0, 2.0};
  obs.dc_queue = MatrixD(2, 4);
  const double q[2][4] = {{6.0, 4.0, 0.0, 3.0}, {2.0, 0.0, 7.0, 5.0}};
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 4; ++j) obs.dc_queue(i, j) = q[i][j] + slot;
  }
  return obs;
}

/// Runs GreFar for two slots and, for each, rebuilds the per-slot problem it
/// solved (post-routing queues) and hands it to `solve`, which returns the
/// expected work vector u. GreFar's processing must be min(u / d_j, h_max)
/// bit for bit.
template <typename Solve>
void expect_processing_from(double beta, Solve solve) {
  const ClusterConfig config = fair_config();
  const GreFarParams params = make_params(2.0, beta);
  GreFarScheduler scheduler(config, params);
  for (std::int64_t t = 0; t < 2; ++t) {
    SlotObservation obs = fair_obs(t);
    const SlotAction action = scheduler.decide(obs);
    SlotObservation routed = obs;
    for (std::size_t i = 0; i < 2; ++i) {
      for (std::size_t j = 0; j < 4; ++j) routed.dc_queue(i, j) += action.route(i, j);
    }
    PerSlotProblem problem = observed_problem(config, routed, params);
    const std::vector<double> u = solve(problem);
    for (std::size_t i = 0; i < 2; ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        const double expected =
            std::min(u[problem.index(i, j)] / config.job_types[j].work, params.h_max);
        EXPECT_EQ(action.process(i, j), expected)
            << "slot " << t << " (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(GreFar, DefaultSolverIsGreedyWithoutFairness) {
  // At beta = 0 GreFar's processing is exactly the greedy's.
  expect_processing_from(0.0, [](const PerSlotProblem& problem) {
    return solve_per_slot_greedy(problem);
  });
}

TEST(GreFar, BetaRequiresConvexSolver) {
  // At beta > 0 GreFar's processing is exactly a direct SPG solve: from the
  // greedy point on the first slot, then from the previous slot's solution
  // clamped onto the new bound box.
  std::vector<double> prev;
  bool greedy_differs = false;
  expect_processing_from(10.0, [&](const PerSlotProblem& problem) {
    std::vector<double> x0 = solve_per_slot_greedy(problem);
    if (!prev.empty()) {
      const std::vector<double>& ub = problem.polytope().upper_bounds();
      for (std::size_t k = 0; k < x0.size(); ++k) x0[k] = std::clamp(prev[k], 0.0, ub[k]);
    }
    std::vector<double> u;
    PgdWorkspace ws;
    minimize_projected_gradient(problem, problem.polytope(), x0, u, ws);
    greedy_differs = greedy_differs || u != solve_per_slot_greedy(problem);
    prev = u;
    return u;
  });
  // The check means something only if SPG left the greedy point.
  EXPECT_TRUE(greedy_differs);
}

TEST(GreFar, RejectsNegativeParameters) {
  EXPECT_THROW(GreFarScheduler(two_dc_config(), make_params(-1.0)), ContractViolation);
}

TEST(GreFar, IneligibleDcNeverTouched) {
  ClusterConfig c = two_dc_config();
  c.job_types[0].eligible_dcs = {0};
  GreFarScheduler s(c, make_params(0.1));
  auto action = s.decide(obs_with(5.0, 1.0, 0.0));
  EXPECT_DOUBLE_EQ(action.route(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(action.process(1, 0), 0.0);
}

TEST(GreFar, TiedQueuesSplitProportionallyToCapacity) {
  // Both DC queues are 0 (tied): the batch splits by capacity share.
  ClusterConfig c = two_dc_config();
  c.data_centers[1].installed = {30};  // DC2 has 3x DC1's capacity
  GreFarScheduler s(c, make_params(1.0));
  SlotObservation obs = obs_with(40.0, 0.0, 0.0);
  obs.availability(1, 0) = 30;
  auto action = s.decide(obs);
  EXPECT_NEAR(action.route(0, 0), 10.0, 1.0);  // ~25% of 40
  EXPECT_NEAR(action.route(1, 0), 30.0, 1.0);  // ~75%
  EXPECT_DOUBLE_EQ(action.route(0, 0) + action.route(1, 0), 40.0);
}

TEST(GreFar, StrictlyShorterQueueStillWinsOutright) {
  GreFarScheduler s(two_dc_config(), make_params(1.0));
  // q0 = 0 strictly below q1 = 3: no tie, everything goes to DC1 first.
  auto action = s.decide(obs_with(5.0, 0.0, 3.0));
  EXPECT_DOUBLE_EQ(action.route(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(action.route(1, 0), 0.0);
}

TEST(GreFar, PostRoutingProcessingCoversFreshlyRoutedJobs) {
  // Queue empty at the DCs, 4 jobs central, low V: with the default
  // (process_after_routing) h covers the routed jobs in the same decision.
  GreFarScheduler with(two_dc_config(), make_params(0.1));
  auto action = with.decide(obs_with(4.0, 0.0, 0.0));
  EXPECT_NEAR(action.process(0, 0) + action.process(1, 0), 4.0, 1e-6);

  // With the literal ordering h sees only the (empty) pre-routing queues.
  GreFarParams literal = make_params(0.1);
  literal.process_after_routing = false;
  GreFarScheduler without(two_dc_config(), literal);
  auto literal_action = without.decide(obs_with(4.0, 0.0, 0.0));
  EXPECT_DOUBLE_EQ(literal_action.process(0, 0) + literal_action.process(1, 0), 0.0);
}

TEST(GreFar, RoutingIsIntegral) {
  GreFarScheduler s(two_dc_config(), make_params(1.0));
  auto action = s.decide(obs_with(5.7, 1.0, 2.0));
  double r = action.route(0, 0) + action.route(1, 0);
  EXPECT_DOUBLE_EQ(r, std::floor(r));
}

// -- zero-capacity / tie-split regression tests ------------------------------

ClusterConfig three_dc_config(std::vector<DataCenterId> eligible = {0, 1, 2}) {
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc1", {10}}, {"dc2", {10}}, {"dc3", {10}}};
  c.accounts = {{"a", 1.0}};
  c.job_types = {{"j", 1.0, std::move(eligible), 0}};
  return c;
}

SlotObservation three_dc_obs(double Q, std::vector<std::int64_t> avail) {
  SlotObservation obs;
  obs.slot = 0;
  obs.prices = {0.5, 0.5, 0.5};
  obs.availability = Matrix<std::int64_t>(3, 1);
  for (std::size_t i = 0; i < 3; ++i) obs.availability(i, 0) = avail[i];
  obs.central_queue = {Q};
  obs.dc_queue = MatrixD(3, 1);  // all tied at zero
  return obs;
}

TEST(GreFar, DeadTieGroupRoutesNothing) {
  // Every beneficial DC has zero capacity this slot. The old split fell back
  // to offering the *whole batch* to each member (total_cap == 0 branch), so
  // jobs were banked in DCs that could never serve them; now they stay
  // central.
  GreFarScheduler s(two_dc_config(), make_params(1.0));
  SlotObservation obs = obs_with(5.0, 0.0, 0.0);
  obs.availability(0, 0) = 0;
  obs.availability(1, 0) = 0;
  auto action = s.decide(obs);
  EXPECT_DOUBLE_EQ(action.route(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(action.route(1, 0), 0.0);
}

TEST(GreFar, DeadDcSkippedInsideTieGroup) {
  // DC1 is dead, DC2 alive, queues tied: the whole batch goes to DC2.
  GreFarScheduler s(two_dc_config(), make_params(1.0));
  SlotObservation obs = obs_with(5.0, 0.0, 0.0);
  obs.availability(0, 0) = 0;
  auto action = s.decide(obs);
  EXPECT_DOUBLE_EQ(action.route(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(action.route(1, 0), 5.0);
}

TEST(GreFar, DeadDcFallsThroughToWorseQueueGroup) {
  // The shortest-queue DC is dead; the batch should skip it and go to the
  // alive DC even though its queue is longer.
  GreFarScheduler s(two_dc_config(), make_params(1.0));
  SlotObservation obs = obs_with(10.0, 0.0, 2.0);
  obs.availability(0, 0) = 0;
  auto action = s.decide(obs);
  EXPECT_DOUBLE_EQ(action.route(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(action.route(1, 0), 10.0);
}

TEST(GreFar, EngineNeverRoutesToPermanentlyDeadDc) {
  // End-to-end: DC1 has zero servers every slot. Over a long run no job may
  // ever enter its queues.
  ClusterConfig config = two_dc_config();
  Matrix<std::int64_t> snapshot(2, 1);
  snapshot(0, 0) = 0;   // DC1 dead forever
  snapshot(1, 0) = 10;  // DC2 alive
  auto prices = std::make_shared<ConstantPriceModel>(std::vector<double>{0.5, 0.5});
  auto avail = std::make_shared<TableAvailability>(
      std::vector<Matrix<std::int64_t>>{snapshot});
  // Overload (15 jobs/slot vs capacity 10) so the alive DC's queue grows:
  // the dead DC then sits alone in the shortest-queue group every slot,
  // which is exactly the configuration the old split stranded jobs in.
  auto arrivals = std::make_shared<ConstantArrivals>(std::vector<std::int64_t>{15});
  auto sched = std::make_shared<GreFarScheduler>(config, make_params(1.0));
  SimulationEngine engine(config, prices, avail, arrivals, sched);
  for (int t = 0; t < 100; ++t) {
    engine.step();
    ASSERT_DOUBLE_EQ(engine.dc_queue_length(0, 0), 0.0) << "slot " << t;
  }
  EXPECT_DOUBLE_EQ(engine.metrics().dc_routed_jobs[0].sum(), 0.0);
  EXPECT_GT(engine.metrics().dc_routed_jobs[1].sum(), 0.0);
}

TEST(GreFar, TieSplitConservesUnderRMaxPressure) {
  // caps 10 vs 1, r_max = 3, Q = 5. The old ceil-based share gave DC2 only
  // ceil(5/11) = 1 after DC1 hit r_max, leaving a job stranded centrally
  // even though both DCs had r_max headroom. The largest-remainder split
  // pins DC1 at r_max and re-splits the rest: 3 + 2 = 5.
  GreFarParams p = make_params(1.0);
  p.r_max = 3.0;
  GreFarScheduler s(two_dc_config(), p);
  SlotObservation obs = obs_with(5.0, 0.0, 0.0);
  obs.availability(1, 0) = 1;
  auto action = s.decide(obs);
  EXPECT_DOUBLE_EQ(action.route(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(action.route(1, 0), 2.0);
}

TEST(GreFar, TieSplitConservesExactlyAcrossBatchSizes) {
  // Capacity weights 7 : 11 : 23 with ample r_max: every batch size must be
  // split exactly (no job lost, none invented) into integral per-DC counts.
  for (double Q = 1.0; Q <= 41.0; Q += 1.0) {
    GreFarScheduler s(three_dc_config(), make_params(1.0));
    SlotObservation obs = three_dc_obs(Q, {7, 11, 23});
    auto action = s.decide(obs);
    double total = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      const double r = action.route(i, 0);
      EXPECT_DOUBLE_EQ(r, std::round(r));
      EXPECT_GE(r, 0.0);
      total += r;
    }
    EXPECT_DOUBLE_EQ(total, Q) << "Q=" << Q;
  }
}

TEST(GreFar, TieSplitIsOrderIndependent) {
  // Same cluster, eligible-DC list permuted: the split must not depend on
  // the order members entered the tie group.
  for (double Q = 1.0; Q <= 12.0; Q += 1.0) {
    GreFarScheduler fwd(three_dc_config({0, 1, 2}), make_params(1.0));
    GreFarScheduler rev(three_dc_config({2, 1, 0}), make_params(1.0));
    auto a = fwd.decide(three_dc_obs(Q, {10, 10, 10}));
    auto b = rev.decide(three_dc_obs(Q, {10, 10, 10}));
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_DOUBLE_EQ(a.route(i, 0), b.route(i, 0)) << "Q=" << Q << " dc=" << i;
    }
  }
}

TEST(GreFar, TraceScopeRecordsTieSplitsAndDriftSigns) {
  GreFarScheduler s(two_dc_config(), make_params(1.0));
  SlotObservation obs = obs_with(5.0, 0.0, 0.0);
  obs.availability(0, 0) = 0;  // one dead member in the tie group
  SlotAction action;
  TraceScope scope;
  s.decide_into(obs, action, &scope);
  ASSERT_EQ(scope.tie_splits.size(), 1u);
  EXPECT_EQ(scope.tie_splits[0].job_type, 0u);
  EXPECT_EQ(scope.tie_splits[0].group_size, 2u);
  EXPECT_DOUBLE_EQ(scope.tie_splits[0].jobs, 5.0);
  EXPECT_EQ(scope.tie_splits[0].zero_capacity_skipped, 1u);
  // Both (i, j) pairs had q = 0 < Q = 5: negative drift weights.
  EXPECT_EQ(scope.drift_weights_negative, 2u);
  EXPECT_EQ(scope.drift_weights_nonnegative, 0u);
}

}  // namespace
}  // namespace grefar

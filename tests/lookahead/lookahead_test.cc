#include "lookahead/lookahead.h"

#include <gtest/gtest.h>

#include "core/grefar.h"
#include "sim/scalar_engine.h"
#include "util/check.h"
#include "workload/arrival_process.h"

namespace grefar {
namespace {

ClusterConfig one_dc_config() {
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc", {10}}};
  c.accounts = {{"a", 1.0}};
  c.job_types = {{"j", 1.0, {0}, 0}};
  return c;
}

ClusterConfig two_dc_config() {
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc1", {10}}, {"dc2", {10}}};
  c.accounts = {{"a", 1.0}};
  c.job_types = {{"j", 1.0, {0, 1}, 0}};
  return c;
}

LookaheadParams lookahead_params(std::int64_t T, std::int64_t R) {
  LookaheadParams p;
  p.T = T;
  p.R = R;
  p.r_max = 100.0;
  p.h_max = 100.0;
  return p;
}

TEST(Lookahead, ProcessesAtTheCheapestSlotInFrame) {
  // Prices alternate 0.9 / 0.1; all work should run on the 0.1 slots.
  auto config = one_dc_config();
  TablePriceModel prices(std::vector<std::vector<double>>{{0.9, 0.1}});
  FullAvailability avail(config.data_centers);
  ConstantArrivals arrivals({4});

  auto result = solve_lookahead(config, prices, avail, arrivals,
                                lookahead_params(2, 3));
  ASSERT_EQ(result.frame_costs.size(), 3u);
  // Per frame: 8 arrivals processed at price 0.1 => energy 0.8 over 2 slots.
  for (double c : result.frame_costs) EXPECT_NEAR(c, 0.4, 1e-6);
  EXPECT_NEAR(result.average_cost, 0.4, 1e-6);
}

TEST(Lookahead, RoutesWorkToTheCheaperDataCenter) {
  auto config = two_dc_config();
  TablePriceModel prices(std::vector<std::vector<double>>{{0.8}, {0.2}});
  FullAvailability avail(config.data_centers);
  ConstantArrivals arrivals({5});
  auto result = solve_lookahead(config, prices, avail, arrivals,
                                lookahead_params(1, 4));
  // Everything at DC2: 5 work * 0.2 = 1.0 per slot.
  EXPECT_NEAR(result.average_cost, 1.0, 1e-6);
}

TEST(Lookahead, CapacityForcesSpillToExpensiveDc) {
  auto config = two_dc_config();
  config.data_centers[1].installed = {2};  // cheap DC capacity 2
  TablePriceModel prices(std::vector<std::vector<double>>{{0.8}, {0.2}});
  FullAvailability avail(config.data_centers);
  ConstantArrivals arrivals({5});
  auto result = solve_lookahead(config, prices, avail, arrivals,
                                lookahead_params(1, 2));
  // 2 work at 0.2 + 3 work at 0.8 = 0.4 + 2.4 = 2.8.
  EXPECT_NEAR(result.average_cost, 2.8, 1e-6);
}

TEST(Lookahead, LongerFramesNeverCostMore) {
  // More lookahead = more temporal flexibility => frame-average optimum
  // cannot increase.
  auto config = one_dc_config();
  TablePriceModel prices(std::vector<std::vector<double>>{{0.9, 0.5, 0.1, 0.7, 0.3, 0.2, 0.8, 0.4}});
  FullAvailability avail(config.data_centers);
  ConstantArrivals arrivals({3});
  auto short_frames = solve_lookahead(config, prices, avail, arrivals,
                                      lookahead_params(1, 8));
  auto long_frames = solve_lookahead(config, prices, avail, arrivals,
                                     lookahead_params(8, 1));
  EXPECT_LE(long_frames.average_cost, short_frames.average_cost + 1e-9);
}

TEST(Lookahead, UsesEnergyEfficientServersFirst) {
  ClusterConfig c;
  c.server_types = {{"fast", 1.0, 1.0}, {"eff", 0.5, 0.3}};
  c.data_centers = {{"dc", {10, 4}}};  // eff capacity 2
  c.accounts = {{"a", 1.0}};
  c.job_types = {{"j", 1.0, {0}, 0}};
  TablePriceModel prices(std::vector<std::vector<double>>{{1.0}});
  FullAvailability avail(c.data_centers);
  ConstantArrivals arrivals({3});
  auto result = solve_lookahead(c, prices, avail, arrivals, lookahead_params(1, 1));
  // 2 work on eff (0.6/work) + 1 work on fast (1.0/work) = 1.2 + 1.0 = 2.2.
  EXPECT_NEAR(result.average_cost, 2.2, 1e-6);
}

TEST(Lookahead, InfeasibleWhenCapacityBelowArrivals) {
  auto config = one_dc_config();
  config.data_centers[0].installed = {2};
  TablePriceModel prices(std::vector<std::vector<double>>{{0.5}});
  FullAvailability avail(config.data_centers);
  ConstantArrivals arrivals({5});  // 5 > capacity 2 every slot
  EXPECT_THROW(solve_lookahead(config, prices, avail, arrivals,
                               lookahead_params(2, 1)),
               ContractViolation);
}

TEST(Lookahead, RMaxBoundRespected) {
  auto config = one_dc_config();
  TablePriceModel prices(std::vector<std::vector<double>>{{0.5}});
  FullAvailability avail(config.data_centers);
  ConstantArrivals arrivals({5});
  auto p = lookahead_params(1, 1);
  p.r_max = 2.0;  // cannot route the 5 arrivals
  EXPECT_THROW(solve_lookahead(config, prices, avail, arrivals, p),
               ContractViolation);
}

TEST(Lookahead, ZeroArrivalsZeroCost) {
  auto config = one_dc_config();
  TablePriceModel prices(std::vector<std::vector<double>>{{0.5}});
  FullAvailability avail(config.data_centers);
  ConstantArrivals arrivals({0});
  auto result = solve_lookahead(config, prices, avail, arrivals,
                                lookahead_params(4, 2));
  EXPECT_NEAR(result.average_cost, 0.0, 1e-9);
}

TEST(Lookahead, RejectsBadParams) {
  auto config = one_dc_config();
  TablePriceModel prices(std::vector<std::vector<double>>{{0.5}});
  FullAvailability avail(config.data_centers);
  ConstantArrivals arrivals({1});
  auto p = lookahead_params(0, 1);
  EXPECT_THROW(solve_lookahead(config, prices, avail, arrivals, p),
               ContractViolation);
}

FairLookaheadParams fair_params(std::int64_t T, std::int64_t R, double beta) {
  FairLookaheadParams p;
  p.base = lookahead_params(T, R);
  p.beta = beta;
  return p;
}

TEST(FairLookahead, BetaZeroMatchesTheLp) {
  auto config = two_dc_config();
  TablePriceModel prices(std::vector<std::vector<double>>{{0.8, 0.3}, {0.5, 0.5}});
  FullAvailability avail(config.data_centers);
  ConstantArrivals arrivals({4});
  auto lp_result = solve_lookahead(config, prices, avail, arrivals,
                                   lookahead_params(2, 3));
  auto fair_result = solve_lookahead_fair(config, prices, avail, arrivals,
                                          fair_params(2, 3, 0.0));
  EXPECT_NEAR(fair_result.average_cost, lp_result.average_cost, 1e-6);
}

TEST(FairLookahead, CostIsAboveTheEnergyOnlyBoundForBetaPositive) {
  // g = e - beta*f with f <= 0, so the optimal g is >= the optimal e... not
  // quite (different optimizers); but the *fair* optimum evaluated on g is
  // at least the energy-only optimum of e minus beta*0:
  //   min_g (e - beta f) >= min e  since -beta f >= 0.
  ClusterConfig config;
  config.server_types = {{"std", 1.0, 1.0}};
  config.data_centers = {{"dc1", {10}}, {"dc2", {10}}};
  config.accounts = {{"a", 0.5}, {"b", 0.5}};
  config.job_types = {{"ja", 1.0, {0, 1}, 0}, {"jb", 1.0, {0, 1}, 1}};
  TablePriceModel prices(std::vector<std::vector<double>>{{0.8, 0.3}, {0.5, 0.5}});
  FullAvailability avail(config.data_centers);
  ConstantArrivals arrivals({3, 2});
  auto energy_only = solve_lookahead(config, prices, avail, arrivals,
                                     lookahead_params(2, 2));
  auto fair = solve_lookahead_fair(config, prices, avail, arrivals,
                                   fair_params(2, 2, 25.0));
  EXPECT_GE(fair.average_cost, energy_only.average_cost - 1e-9);
}

TEST(FairLookahead, LargerBetaNeverLowersTheCost) {
  ClusterConfig config;
  config.server_types = {{"std", 1.0, 1.0}};
  config.data_centers = {{"dc", {10}}};
  config.accounts = {{"a", 0.7}, {"b", 0.3}};
  config.job_types = {{"ja", 1.0, {0}, 0}, {"jb", 1.0, {0}, 1}};
  TablePriceModel prices(std::vector<std::vector<double>>{{0.6, 0.2}});
  FullAvailability avail(config.data_centers);
  ConstantArrivals arrivals({2, 2});
  double prev = -1e300;
  for (double beta : {0.0, 5.0, 50.0}) {
    auto result = solve_lookahead_fair(config, prices, avail, arrivals,
                                       fair_params(2, 4, beta));
    EXPECT_GE(result.average_cost, prev - 1e-9) << "beta=" << beta;
    prev = result.average_cost;
  }
}

TEST(FairLookahead, UpperBoundsGreFarTheoremStyle) {
  // The beta > 0 analogue of the Theorem-1 bench: GreFar's energy-fairness
  // cost at large V should approach (and not hugely exceed) the fair
  // lookahead optimum.
  ClusterConfig config;
  config.server_types = {{"std", 1.0, 1.0}};
  config.data_centers = {{"dc1", {12}}, {"dc2", {12}}};
  config.accounts = {{"a", 0.5}, {"b", 0.5}};
  config.job_types = {{"ja", 1.0, {0, 1}, 0}, {"jb", 1.0, {0, 1}, 1}};
  auto prices = std::make_shared<TablePriceModel>(std::vector<std::vector<double>>{
      {0.9, 0.8, 0.7, 0.3, 0.2, 0.3, 0.8, 0.9},
      {0.7, 0.7, 0.5, 0.4, 0.3, 0.4, 0.6, 0.7}});
  auto avail = std::make_shared<FullAvailability>(config.data_centers);
  auto arrivals = std::make_shared<ConstantArrivals>(std::vector<std::int64_t>{3, 3});

  const double beta = 10.0;
  auto bound = solve_lookahead_fair(config, *prices, *avail, *arrivals,
                                    fair_params(8, 40, beta));

  GreFarParams g;
  g.V = 128.0;
  g.beta = beta;
  g.r_max = 50.0;
  g.h_max = 50.0;
  g.clamp_to_queue = true;
  g.process_after_routing = false;
  auto scheduler = std::make_shared<GreFarScheduler>(config, g);
  ScalarQueueSimulator sim(config, prices, avail, arrivals, scheduler);
  sim.run(320);
  EXPECT_LE(sim.average_cost(beta), bound.average_cost * 1.25 + 0.1);
}

TEST(FairLookahead, RejectsBadParams) {
  auto config = one_dc_config();
  TablePriceModel prices(std::vector<std::vector<double>>{{0.5}});
  FullAvailability avail(config.data_centers);
  ConstantArrivals arrivals({1});
  auto p = fair_params(2, 2, -1.0);
  EXPECT_THROW(solve_lookahead_fair(config, prices, avail, arrivals, p),
               ContractViolation);
  p = fair_params(2, 2, 1.0);
  p.fw_iterations = 0;
  EXPECT_THROW(solve_lookahead_fair(config, prices, avail, arrivals, p),
               ContractViolation);
}

}  // namespace
}  // namespace grefar

// End-to-end checks that the full paper scenario reproduces the qualitative
// results of §VI on short horizons (the bench binaries run the full 2000 h).
#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "core/grefar.h"
#include "scenario/paper_scenario.h"
#include "support/fixtures.h"

namespace grefar {
namespace {

constexpr std::int64_t kHorizon = 500;
constexpr std::uint64_t kSeed = 42;

TEST(PaperScenario, ConfigIsValidAndTableOneShaped) {
  auto s = make_paper_scenario(kSeed);
  EXPECT_EQ(s.config.num_data_centers(), 3u);
  EXPECT_EQ(s.config.num_server_types(), 3u);
  EXPECT_EQ(s.config.num_accounts(), 4u);
  EXPECT_EQ(s.config.num_job_types(), 8u);
  EXPECT_DOUBLE_EQ(s.config.accounts[0].gamma, 0.40);
  EXPECT_DOUBLE_EQ(s.config.accounts[3].gamma, 0.15);
  EXPECT_DOUBLE_EQ(s.config.server_types[1].speed, 0.75);
  EXPECT_DOUBLE_EQ(s.config.server_types[1].busy_power, 0.60);
}

TEST(PaperScenario, DeterministicPerSeed) {
  auto s1 = make_paper_scenario(7);
  auto s2 = make_paper_scenario(7);
  auto e1 = run_scenario(s1, std::make_shared<AlwaysScheduler>(s1.config), 100);
  auto e2 = run_scenario(s2, std::make_shared<AlwaysScheduler>(s2.config), 100);
  EXPECT_EQ(e1->metrics().energy_cost.values(), e2->metrics().energy_cost.values());
  EXPECT_EQ(e1->metrics().fairness.values(), e2->metrics().fairness.values());
}

TEST(PaperScenario, DifferentSeedsProduceDifferentRuns) {
  auto s1 = make_paper_scenario(7);
  auto s2 = make_paper_scenario(8);
  auto e1 = run_scenario(s1, std::make_shared<AlwaysScheduler>(s1.config), 100);
  auto e2 = run_scenario(s2, std::make_shared<AlwaysScheduler>(s2.config), 100);
  EXPECT_NE(e1->metrics().energy_cost.values(), e2->metrics().energy_cost.values());
}

TEST(PaperScenario, SlacknessHolds) {
  // Average arrived work must sit well below average capacity (so the
  // slackness conditions (20)-(22) are satisfiable).
  auto s = make_paper_scenario(kSeed);
  double total_work = 0.0, total_capacity = 0.0;
  for (std::int64_t t = 0; t < kHorizon; ++t) {
    auto counts = s.arrivals->arrivals(t);
    for (std::size_t j = 0; j < counts.size(); ++j) {
      total_work += static_cast<double>(counts[j]) * s.config.job_types[j].work;
    }
    auto avail = s.availability->availability(t);
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t k = 0; k < 3; ++k) {
        total_capacity +=
            static_cast<double>(avail(i, k)) * s.config.server_types[k].speed;
      }
    }
  }
  EXPECT_LT(total_work, 0.75 * total_capacity);
  EXPECT_GT(total_work / kHorizon, 50.0);  // meaningful load (~90 target)
  EXPECT_LT(total_work / kHorizon, 140.0);
}

TEST(Fig2Shape, EnergyCostDecreasesAndDelayIncreasesWithV) {
  auto s = make_paper_scenario(kSeed);
  double prev_energy = 1e300;
  double prev_delay = -1.0;
  for (double V : {0.1, 2.5, 20.0}) {
    auto engine = run_scenario(
        s, std::make_shared<GreFarScheduler>(s.config, paper_grefar_params(V, 0.0)),
        kHorizon);
    const auto& m = engine->metrics();
    double energy = m.final_average_energy_cost();
    double delay = m.mean_delay();
    EXPECT_LE(energy, prev_energy * 1.02) << "V=" << V;
    EXPECT_GE(delay, prev_delay * 0.9) << "V=" << V;
    prev_energy = energy;
    prev_delay = delay;
  }
}

TEST(Fig3Shape, FairnessImprovesWithBetaAtMarginalEnergyCost) {
  auto s = make_paper_scenario(kSeed);
  auto beta0 = run_scenario(
      s, std::make_shared<GreFarScheduler>(s.config, paper_grefar_params(7.5, 0.0)),
      kHorizon);
  auto beta100 = run_scenario(
      s, std::make_shared<GreFarScheduler>(s.config, paper_grefar_params(7.5, 100.0)),
      kHorizon);
  double f0 = beta0->metrics().final_average_fairness();
  double f100 = beta100->metrics().final_average_fairness();
  EXPECT_GT(f100, f0);  // higher (closer to 0) is fairer
  // Energy increases only marginally (paper: "marginal increase").
  double e0 = beta0->metrics().final_average_energy_cost();
  double e100 = beta100->metrics().final_average_energy_cost();
  EXPECT_LE(e100, e0 * 1.20);
  // Side effect the paper reports: delay *drops* with beta > 0.
  EXPECT_LE(beta100->metrics().mean_delay(), beta0->metrics().mean_delay() * 1.05);
}

TEST(Fig4Shape, GreFarBeatsAlwaysOnEnergyAtHigherDelay) {
  auto s = make_paper_scenario(kSeed);
  auto grefar = run_scenario(
      s, std::make_shared<GreFarScheduler>(s.config, paper_grefar_params(7.5, 100.0)),
      kHorizon);
  auto always = run_scenario(s, std::make_shared<AlwaysScheduler>(s.config), kHorizon);
  EXPECT_LT(grefar->metrics().final_average_energy_cost(),
            always->metrics().final_average_energy_cost());
  EXPECT_GT(grefar->metrics().mean_delay(), always->metrics().mean_delay());
  EXPECT_NEAR(always->metrics().mean_delay(), 1.0, 0.1);  // paper's observation
}

TEST(InTextShape, MoreWorkGoesToCheaperDataCenters) {
  // §VI-B1: work ordering DC2 > DC1 > DC3 (energy cost per unit work
  // 0.346 < 0.392 < 0.572).
  auto s = make_paper_scenario(kSeed);
  auto engine = run_scenario(
      s, std::make_shared<GreFarScheduler>(s.config, paper_grefar_params(7.5, 100.0)),
      kHorizon);
  const auto& m = engine->metrics();
  EXPECT_GT(m.mean_dc_work(1), m.mean_dc_work(0));
  EXPECT_GT(m.mean_dc_work(0), m.mean_dc_work(2));
}

TEST(PaperScenario, WorkIsConserved) {
  // Everything arrived is either processed or still queued at the end.
  auto s = make_paper_scenario(kSeed);
  auto engine = run_scenario(
      s, std::make_shared<GreFarScheduler>(s.config, paper_grefar_params(2.5, 0.0)),
      kHorizon);
  const auto& m = engine->metrics();
  double arrived = m.arrived_work.sum();
  double processed = 0.0;
  for (std::size_t i = 0; i < 3; ++i) processed += m.dc_work[i].sum();
  double queued = 0.0;
  for (std::size_t j = 0; j < s.config.num_job_types(); ++j) {
    queued += engine->central_queue_length(j) * s.config.job_types[j].work;
    for (std::size_t i = 0; i < 3; ++i) {
      queued += engine->dc_queue_length(i, j) * s.config.job_types[j].work;
    }
  }
  EXPECT_NEAR(arrived, processed + queued, 1e-6 * std::max(1.0, arrived));
}

TEST(PaperScenario, GreFarQueuesAreStable) {
  auto s = make_paper_scenario(kSeed);
  auto engine = run_scenario(
      s, std::make_shared<GreFarScheduler>(s.config, paper_grefar_params(20.0, 0.0)),
      kHorizon);
  // Bounded backlog: far below the ~45k work units that arrive over the run.
  const auto& m = engine->metrics();
  EXPECT_LT(m.total_queue_jobs.at(kHorizon - 1), 2000.0);
}

TEST(SmallScenario, RunsAllSchedulers) {
  auto s = make_small_scenario(3);
  for (auto& scheduler : std::vector<std::shared_ptr<Scheduler>>{
           std::make_shared<GreFarScheduler>(s.config, paper_grefar_params(2.0, 0.0)),
           std::make_shared<GreFarScheduler>(s.config, paper_grefar_params(2.0, 50.0)),
           std::make_shared<AlwaysScheduler>(s.config),
           std::make_shared<CheapestFirstScheduler>(s.config),
           std::make_shared<RandomScheduler>(s.config, 1),
           std::make_shared<LocalOnlyScheduler>(s.config)}) {
    auto engine = run_scenario(s, scheduler, 200);
    EXPECT_EQ(engine->metrics().slots(), 200u) << scheduler->name();
    EXPECT_GE(engine->metrics().energy_cost.mean(), 0.0) << scheduler->name();
  }
}

TEST(ConstantPriceAblation, GreFarAdvantageVanishes) {
  // With constant prices (and beta = 0) there is nothing to arbitrage over
  // time; GreFar's energy cost should be within a whisker of Always'.
  auto s = make_paper_scenario(kSeed);
  s.prices = std::make_shared<ConstantPriceModel>(
      std::vector<double>{0.392, 0.433, 0.548});
  auto grefar = run_scenario(
      s, std::make_shared<GreFarScheduler>(s.config, paper_grefar_params(7.5, 0.0)),
      kHorizon);
  auto always = run_scenario(s, std::make_shared<AlwaysScheduler>(s.config), kHorizon);
  double eg = grefar->metrics().final_average_energy_cost();
  double ea = always->metrics().final_average_energy_cost();
  // GreFar can still pick cheaper *locations*; it must not be much worse.
  EXPECT_LE(eg, ea * 1.05);
}

}  // namespace
}  // namespace grefar

// Per-slot solving under tiered (usage-dependent) billing: the greedy must
// remain exact (verified against brute force), the convex solvers must agree
// on the smoothed objective, and the engine must bill through the tariff.
#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "check/brute_force.h"
#include "check/per_slot_oracles.h"
#include "core/grefar.h"
#include "core/per_slot_solvers.h"
#include "price/price_model.h"
#include "sim/engine.h"
#include "support/fixtures.h"
#include "util/rng.h"
#include "workload/arrival_process.h"

namespace grefar {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ClusterConfig tariffed_config() {
  ClusterConfig c;
  c.server_types = {{"fast", 1.0, 1.0}, {"eff", 0.5, 0.3}};
  c.data_centers = {{"dc1", {4, 4}}, {"dc2", {2, 8}}};
  c.accounts = {{"a", 0.6}, {"b", 0.4}};
  c.job_types = {{"j0", 1.0, {0, 1}, 0}, {"j1", 2.0, {0}, 1}};
  // dc1: doubles beyond 2 energy units; dc2: flat.
  c.tariffs = {TieredTariff({{2.0, 1.0}, {kInf, 2.0}}), TieredTariff()};
  return c;
}

SlotObservation obs_for(const ClusterConfig& c, Rng& rng) {
  SlotObservation obs;
  obs.slot = 0;
  for (std::size_t i = 0; i < c.num_data_centers(); ++i) {
    obs.prices.push_back(rng.uniform(0.2, 0.8));
  }
  obs.availability = Matrix<std::int64_t>(c.num_data_centers(), c.num_server_types());
  for (std::size_t i = 0; i < c.num_data_centers(); ++i) {
    for (std::size_t k = 0; k < c.num_server_types(); ++k) {
      obs.availability(i, k) = c.data_centers[i].installed[k];
    }
  }
  obs.central_queue.assign(c.num_job_types(), 0.0);
  obs.dc_queue = MatrixD(c.num_data_centers(), c.num_job_types());
  for (std::size_t i = 0; i < c.num_data_centers(); ++i) {
    for (std::size_t j = 0; j < c.num_job_types(); ++j) {
      if (c.job_types[j].eligible(i)) obs.dc_queue(i, j) = rng.uniform(0.0, 5.0);
    }
  }
  return obs;
}

GreFarParams params(double V, double beta = 0.0) {
  GreFarParams p;
  p.V = V;
  p.beta = beta;
  p.r_max = 100.0;
  p.h_max = 100.0;
  return p;
}

TEST(TariffGreedy, SingleDcMatchesBruteForce) {
  // 1 DC, 1 server type (speed/power 1), tariff doubling beyond E=2.
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc", {6}}};
  c.accounts = {{"a", 1.0}};
  c.job_types = {{"j0", 1.0, {0}, 0}, {"j1", 2.0, {0}, 0}};
  c.tariffs = {TieredTariff({{2.0, 1.0}, {kInf, 2.0}})};

  SlotObservation obs;
  obs.slot = 0;
  obs.prices = {0.5};
  obs.availability = Matrix<std::int64_t>(1, 1);
  obs.availability(0, 0) = 6;
  obs.central_queue = {0.0, 0.0};
  obs.dc_queue = MatrixD(1, 2);
  // Value of j0 per work: 1.8; j1: 0.6. Marginal cost: 0.5*V within tier 1,
  // 1.0*V beyond. With V = 1.5: tier-1 cost 0.75, tier-2 cost 1.5.
  obs.dc_queue(0, 0) = 1.8;
  obs.dc_queue(0, 1) = 1.2;

  PerSlotProblem problem = observed_problem(c, obs, params(1.5));
  auto greedy = solve_per_slot_greedy(problem);
  // j0 (value 1.8) profitable on both tiers up to its queue (1.8 work);
  // j1 (value 0.6) profitable on neither (0.6 < 0.75).
  EXPECT_NEAR(greedy[0], 1.8, 1e-9);
  EXPECT_NEAR(greedy[1], 0.0, 1e-9);

  // Cross-check the exact (unsmoothed) objective against brute force.
  auto exact = [&](const std::vector<double>& u) {
    double work = u[0] + u[1];
    EnergyCostCurve curve(c.server_types, {6});
    double cost = 1.5 * 0.5 * c.tariff(0).cost(curve.energy_for_work(work));
    return cost - 1.8 * u[0] - 0.6 * u[1];
  };
  auto brute = minimize_brute_force(exact, problem.polytope(), 61);
  EXPECT_LE(exact(greedy), brute.objective + 1e-6);
}

TEST(TariffGreedy, TierBoundaryChangesTheDecision) {
  // Same setup; a mid-value demand is served only within the cheap tier.
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc", {6}}};
  c.accounts = {{"a", 1.0}};
  c.job_types = {{"j", 1.0, {0}, 0}};
  c.tariffs = {TieredTariff({{2.0, 1.0}, {kInf, 2.0}})};
  SlotObservation obs;
  obs.slot = 0;
  obs.prices = {0.5};
  obs.availability = Matrix<std::int64_t>(1, 1);
  obs.availability(0, 0) = 6;
  obs.central_queue = {0.0};
  obs.dc_queue = MatrixD(1, 1);
  obs.dc_queue(0, 0) = 1.0;  // queue value q/d = 1.0 per unit work

  // V = 1.5: tier-1 marginal 0.75 < 1.0 < tier-2 marginal 1.5. Disable the
  // queue clamp so the bound (h_max = 5) exceeds the tier boundary.
  auto p = params(1.5);
  p.h_max = 5.0;
  p.clamp_to_queue = false;
  PerSlotProblem problem = observed_problem(c, obs, p);
  auto u = solve_per_slot_greedy(problem);
  EXPECT_NEAR(u[0], 2.0, 1e-9);  // stops exactly at the tier boundary
}

TEST(TariffGreedy, RandomInstancesBeatBruteForceGrid) {
  auto c = tariffed_config();
  Rng rng(31);
  for (int trial = 0; trial < 15; ++trial) {
    auto obs = obs_for(c, rng);
    PerSlotProblem problem = observed_problem(c, obs, params(rng.uniform(0.5, 4.0)));
    auto greedy = solve_per_slot_greedy(problem);
    EXPECT_TRUE(is_feasible(problem.polytope(), greedy, 1e-9));
    // Exact objective (kinked tariff, kinked curve).
    const double* qv = problem.view().queue_value;  // all J columns
    auto exact = [&](const std::vector<double>& u) {
      double total = 0.0;
      for (std::size_t i = 0; i < c.num_data_centers(); ++i) {
        double work = 0.0;
        for (std::size_t j = 0; j < c.num_job_types(); ++j) {
          work += u[problem.index(i, j)];
          total -= qv[problem.index(i, j)] * u[problem.index(i, j)];
        }
        total += problem.params().V * obs.prices[i] *
                 c.tariff(i).cost(problem.curve(i).energy_for_work(work));
      }
      return total;
    };
    auto brute = minimize_brute_force(exact, problem.polytope(), 13);
    EXPECT_LE(exact(greedy), brute.objective + 1e-6) << "trial " << trial;
  }
}

TEST(TariffConvexSolvers, AgreeWithGreedyOnSmoothedObjective) {
  auto c = tariffed_config();
  Rng rng(33);
  for (int trial = 0; trial < 10; ++trial) {
    auto obs = obs_for(c, rng);
    PerSlotProblem problem = observed_problem(c, obs, params(rng.uniform(0.5, 4.0)));
    auto greedy = solve_per_slot_greedy(problem);
    auto pgd = solve_per_slot_pgd(problem);
    double scale = std::max(1.0, std::abs(problem.value(greedy)));
    EXPECT_NEAR(problem.value(greedy), problem.value(pgd), 6e-3 * scale)
        << "trial " << trial;
  }
}

TEST(TariffLp, IsRejected) {
  auto c = tariffed_config();
  Rng rng(35);
  auto obs = obs_for(c, rng);
  PerSlotProblem problem = observed_problem(c, obs, params(1.0));
  EXPECT_THROW(build_per_slot_lp(problem), ContractViolation);
}

TEST(TariffEngine, BillsThroughTheTariff) {
  // One DC, constant price, tariff doubling beyond E=2; Always processes
  // 4 work => energy 4 => bill = 0.5 * (2*1 + 2*2) = 3.
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc", {10}}};
  c.accounts = {{"a", 1.0}};
  c.job_types = {{"j", 1.0, {0}, 0}};
  c.tariffs = {TieredTariff({{2.0, 1.0}, {kInf, 2.0}})};
  auto prices = std::make_shared<ConstantPriceModel>(std::vector<double>{0.5});
  auto avail = std::make_shared<FullAvailability>(c.data_centers);
  auto arr = std::make_shared<ConstantArrivals>(std::vector<std::int64_t>{4});
  auto sched = std::make_shared<AlwaysScheduler>(c);
  SimulationEngine engine(c, prices, avail, arr, sched);
  engine.run(3);
  EXPECT_DOUBLE_EQ(engine.metrics().energy_cost.at(1), 3.0);
}

TEST(TariffEngine, GreFarSpreadsWorkToAvoidExpensiveTiers) {
  // Strongly tiered billing makes batching expensive: GreFar under the
  // tariff should pay less than the same GreFar ignoring the tier structure
  // would (i.e., tariff-aware decisions matter).
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc", {40}}};
  c.accounts = {{"a", 1.0}};
  c.job_types = {{"j", 1.0, {0}, 0}};
  c.tariffs = {TieredTariff({{8.0, 1.0}, {kInf, 4.0}})};

  auto prices = std::make_shared<TablePriceModel>(
      std::vector<std::vector<double>>{{0.6, 0.5, 0.4, 0.3, 0.4, 0.5}});
  auto avail = std::make_shared<FullAvailability>(c.data_centers);
  auto arr = std::make_shared<ConstantArrivals>(std::vector<std::int64_t>{6});

  GreFarParams p = params(6.0);
  auto run_cost = [&](const ClusterConfig& config) {
    auto sched = std::make_shared<GreFarScheduler>(config, p);
    // Bill both runs under the *tariffed* cluster (the real meter).
    SimulationEngine engine(c, prices, avail, arr, sched);
    engine.run(400);
    return engine.metrics().final_average_energy_cost();
  };
  ClusterConfig blind = c;
  blind.tariffs.clear();  // scheduler believes billing is linear
  double aware = run_cost(c);
  double unaware = run_cost(blind);
  EXPECT_LE(aware, unaware + 1e-9);
}

}  // namespace
}  // namespace grefar

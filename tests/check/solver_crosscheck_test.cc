#include "check/solver_crosscheck.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "check/per_slot_oracles.h"
#include "core/per_slot_solvers.h"
#include "support/fixtures.h"
#include "util/rng.h"

namespace grefar {
namespace {

ClusterConfig small_config() {
  ClusterConfig c;
  c.server_types = {{"fast", 1.0, 1.0}, {"eff", 0.5, 0.3}};
  c.data_centers = {{"dc1", {4, 4}}, {"dc2", {2, 8}}};
  c.accounts = {{"a", 0.6}, {"b", 0.4}};
  c.job_types = {{"j0", 1.0, {0, 1}, 0}, {"j1", 2.0, {0}, 1}};
  return c;
}

SlotObservation random_obs(const ClusterConfig& c, Rng& rng) {
  SlotObservation obs;
  obs.slot = 0;
  for (std::size_t i = 0; i < c.num_data_centers(); ++i) {
    obs.prices.push_back(rng.uniform(0.2, 0.8));
  }
  obs.availability = Matrix<std::int64_t>(c.num_data_centers(), c.num_server_types());
  for (std::size_t i = 0; i < c.num_data_centers(); ++i) {
    for (std::size_t k = 0; k < c.num_server_types(); ++k) {
      obs.availability(i, k) = rng.uniform_int(1, c.data_centers[i].installed[k]);
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

GreFarParams params(double V, double beta) {
  GreFarParams p;
  p.V = V;
  p.beta = beta;
  p.h_max = 100.0;
  p.r_max = 100.0;
  return p;
}

/// GreFar's production solve of `problem`: the greedy at beta = 0, SPG
/// from the greedy point above.
std::vector<double> production_solve(const PerSlotProblem& problem) {
  PerSlotScratch scratch;
  std::vector<double> u;
  solve_per_slot_into(problem, u, scratch);
  return u;
}

TEST(SolverCrosscheck, ExactSolversPassOnRandomSmallInstances) {
  auto config = small_config();
  Rng rng(42);
  for (int trial = 0; trial < 8; ++trial) {
    auto obs = random_obs(config, rng);
    PerSlotProblem problem =
        observed_problem(config, obs, params(rng.uniform(0.5, 10.0), 0.0));
    const std::pair<std::string, std::vector<double>> solutions[] = {
        {"greedy", production_solve(problem)}, {"lp", solve_per_slot_lp(problem)}};
    for (const auto& [name, u] : solutions) {
      SolverCrosscheckOptions options;
      options.points_per_dim = 5;
      options.objective_tol = 1e-4;
      auto violations = crosscheck_solution(problem, u, name, options);
      EXPECT_TRUE(violations.empty())
          << "trial " << trial << ": " << violations[0].to_string();
    }
  }
}

TEST(SolverCrosscheck, FirstOrderSolversPassWithinConvergenceTolerance) {
  auto config = small_config();
  Rng rng(7);
  for (int trial = 0; trial < 4; ++trial) {
    auto obs = random_obs(config, rng);
    PerSlotProblem problem = observed_problem(config, obs, params(2.0, 50.0));
    const std::pair<std::string, std::vector<double>> solutions[] = {
        {"spg", production_solve(problem)},
        {"frank-wolfe", solve_per_slot_frank_wolfe(problem)}};
    for (const auto& [name, u] : solutions) {
      SolverCrosscheckOptions options;
      options.points_per_dim = 5;
      options.objective_tol = 1e-2;  // SPG/FW stop at their own tolerance
      auto violations = crosscheck_solution(problem, u, name, options);
      EXPECT_TRUE(violations.empty())
          << "trial " << trial << ": " << violations[0].to_string();
    }
  }
}

TEST(SolverCrosscheck, BrokenSolverIsCaughtWithDescriptiveRecord) {
  // A "solver" that refuses to process anything: with queued work and cheap
  // energy, the true optimum is negative, so doing nothing is suboptimal.
  auto config = small_config();
  Rng rng(3);
  auto obs = random_obs(config, rng);
  for (std::size_t i = 0; i < config.num_data_centers(); ++i) {
    for (std::size_t j = 0; j < config.num_job_types(); ++j) {
      if (config.job_types[j].eligible(i)) obs.dc_queue(i, j) = 30.0;
    }
  }
  PerSlotProblem problem = observed_problem(config, obs, params(0.1, 0.0));
  const std::vector<double> lazy(problem.num_vars(), 0.0);
  auto violations = crosscheck_solution(problem, lazy, "broken-lazy");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, InvariantKind::kSolverOptimality);
  const std::string text = violations[0].to_string();
  EXPECT_NE(text.find("broken-lazy"), std::string::npos) << text;
  EXPECT_NE(text.find("brute-force"), std::string::npos) << text;
}

TEST(SolverCrosscheck, InfeasibleSolutionIsCaught) {
  auto config = small_config();
  Rng rng(5);
  auto obs = random_obs(config, rng);
  PerSlotProblem problem = observed_problem(config, obs, params(1.0, 0.0));

  std::vector<double> outside(problem.num_vars(), 0.0);
  outside[0] = 1e9;  // far beyond ub and the capacity cap
  auto violations = crosscheck_solution(problem, outside, "broken-box");
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].kind, InvariantKind::kCapacityChain);

  std::vector<double> wrong_size(problem.num_vars() + 1, 0.0);
  violations = crosscheck_solution(problem, wrong_size, "broken-shape");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, InvariantKind::kActionShape);

  std::vector<double> poisoned(problem.num_vars(), 0.0);
  poisoned[1] = std::numeric_limits<double>::quiet_NaN();
  violations = crosscheck_solution(problem, poisoned, "broken-nan");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, InvariantKind::kNonFinite);
}

}  // namespace
}  // namespace grefar

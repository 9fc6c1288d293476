#include "check/per_slot_oracles.h"

#include <algorithm>
#include <utility>

#include "core/per_slot_solvers.h"
#include "util/check.h"

namespace grefar {

std::vector<double> solve_per_slot_frank_wolfe(const PerSlotProblem& problem) {
  std::vector<double> warm = solve_per_slot_greedy(problem);
  auto result = minimize_frank_wolfe(problem, problem.polytope(), std::move(warm));
  return std::move(result.x);
}

std::vector<double> solve_per_slot_pgd(const PerSlotProblem& problem) {
  const std::vector<double> warm = solve_per_slot_greedy(problem);
  std::vector<double> u;
  PgdWorkspace ws;
  minimize_projected_gradient(problem, problem.polytope(), warm, u, ws);
  return u;
}

LinearProgram build_per_slot_lp(const PerSlotProblem& problem) {
  const auto& config = problem.config();
  GREFAR_CHECK_MSG(!config.has_nonlinear_billing(),
                   "the per-slot LP models linear billing only; use the greedy "
                   "or a convex solver with tiered tariffs");
  const PerSlotView v = problem.view();
  const std::size_t N = v.num_dcs;
  const std::size_t J = v.num_types;
  const std::size_t K = v.num_servers;
  const double V = problem.params().V;

  // Variables: u_{i,j} at i*J+j, then w_{i,k} at N*J + i*K + k.
  LinearProgram lp(N * J + N * K);
  auto u_idx = [&](std::size_t i, std::size_t j) { return i * J + j; };
  auto w_idx = [&](std::size_t i, std::size_t k) { return N * J + i * K + k; };

  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = 0; j < J; ++j) {
      lp.set_objective(u_idx(i, j), -v.queue_value[u_idx(i, j)]);
      lp.add_upper_bound(u_idx(i, j), v.upper_bounds[u_idx(i, j)]);
    }
    std::vector<std::pair<std::size_t, double>> balance;
    for (std::size_t j = 0; j < J; ++j) balance.emplace_back(u_idx(i, j), 1.0);
    for (std::size_t k = 0; k < K; ++k) {
      lp.set_objective(w_idx(i, k), V * v.prices[i] * v.busy_power[k] / v.speed[k]);
      lp.add_upper_bound(w_idx(i, k),
                         static_cast<double>(v.availability[i * K + k]) * v.speed[k]);
      balance.emplace_back(w_idx(i, k), -1.0);
    }
    lp.add_constraint_sparse(balance, ConstraintSense::kLessEqual, 0.0);
  }
  return lp;
}

std::vector<double> solve_per_slot_lp(const PerSlotProblem& problem) {
  LinearProgram lp = build_per_slot_lp(problem);
  LpSolution sol = solve_lp(lp);
  GREFAR_CHECK_MSG(sol.optimal(), "per-slot LP not optimal: " << to_string(sol.status));
  std::vector<double> u(problem.num_vars());
  std::copy_n(sol.x.begin(), problem.num_vars(), u.begin());
  return u;
}

}  // namespace grefar

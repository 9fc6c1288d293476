#include "check/solver_crosscheck.h"

#include <cmath>
#include <sstream>

#include "check/brute_force.h"
#include "util/check.h"

namespace grefar {

namespace {

InvariantViolation make_violation(InvariantKind kind, std::size_t dc,
                                  std::size_t job_type, double observed, double bound,
                                  std::string detail) {
  InvariantViolation v;
  v.kind = kind;
  v.slot = 0;
  v.dc = dc;
  v.job_type = job_type;
  v.observed = observed;
  v.bound = bound;
  v.detail = std::move(detail);
  return v;
}

}  // namespace

std::vector<InvariantViolation> crosscheck_solution(
    const PerSlotProblem& problem, const std::vector<double>& u,
    const std::string& solver_name, const SolverCrosscheckOptions& options) {
  constexpr std::size_t kNone = InvariantViolation::kNoIndex;
  const std::size_t J = problem.num_columns();
  std::vector<InvariantViolation> violations;

  if (u.size() != problem.num_vars()) {
    violations.push_back(make_violation(
        InvariantKind::kActionShape, kNone, kNone, static_cast<double>(u.size()),
        static_cast<double>(problem.num_vars()),
        solver_name + ": solution has the wrong dimension"));
    return violations;
  }
  for (std::size_t v = 0; v < u.size(); ++v) {
    if (!std::isfinite(u[v])) {
      violations.push_back(make_violation(InvariantKind::kNonFinite, v / J, v % J,
                                          u[v], 0.0,
                                          solver_name + ": NaN/Inf in solution"));
      return violations;
    }
  }
  if (!is_feasible(problem.polytope(), u, options.feasibility_tol)) {
    // Pin down which bound broke for the record.
    const auto& ub = problem.polytope().upper_bounds();
    for (std::size_t v = 0; v < u.size(); ++v) {
      if (u[v] < -options.feasibility_tol || u[v] > ub[v] + options.feasibility_tol) {
        violations.push_back(make_violation(
            InvariantKind::kCapacityChain, v / J, v % J, u[v], ub[v],
            solver_name + ": variable outside its [0, ub] box"));
      }
    }
    if (violations.empty()) {
      violations.push_back(make_violation(
          InvariantKind::kCapacityChain, kNone, kNone, 0.0, 0.0,
          solver_name + ": solution violates a per-DC capacity group cap"));
    }
    return violations;
  }

  // Grid over a tightened copy of the polytope: queue-clamped upper bounds
  // can far exceed the DC capacity cap, and a coarse grid over [0, ub] would
  // then step straight over the feasible interior (leaving all-zeros as the
  // only grid point — a useless oracle). No group member can exceed its cap.
  const std::size_t N = problem.config().num_data_centers();
  std::vector<double> grid_ub = problem.polytope().upper_bounds();
  for (std::size_t i = 0; i < N; ++i) {
    const double cap = problem.curve(i).capacity();
    for (std::size_t j = 0; j < J; ++j) {
      const std::size_t v = problem.index(i, j);
      grid_ub[v] = std::min(grid_ub[v], cap);
    }
  }
  CappedBoxPolytope grid(std::move(grid_ub));
  for (std::size_t i = 0; i < N; ++i) {
    std::vector<std::size_t> members;
    members.reserve(J);
    for (std::size_t j = 0; j < J; ++j) members.push_back(problem.index(i, j));
    grid.add_group(std::move(members), problem.curve(i).capacity());
  }
  const auto brute = minimize_brute_force(
      [&problem](const std::vector<double>& x) { return problem.value(x); },
      grid, options.points_per_dim);
  const double achieved = problem.value(u);
  const double slack =
      options.objective_tol * (1.0 + std::abs(brute.objective));
  if (achieved > brute.objective + slack) {
    std::ostringstream os;
    os << solver_name << ": objective " << achieved
       << " is beaten by the brute-force grid optimum " << brute.objective << " ("
       << brute.evaluated << " feasible grid points, " << options.points_per_dim
       << " per dim) by more than " << slack;
    violations.push_back(make_violation(InvariantKind::kSolverOptimality, kNone, kNone,
                                        achieved, brute.objective, os.str()));
  }
  return violations;
}

}  // namespace grefar

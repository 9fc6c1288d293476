// Brute-force cross-checks for per-slot solutions.
//
// On small instances (num_vars <= 6 or so) the CappedBoxPolytope can be
// swept with a regular grid, giving an independent oracle for eq. (14)'s
// h-part: any correct solver must (a) return a feasible point and (b) reach
// an objective value no worse than the best grid point, up to its own
// convergence tolerance. A "solver" that silently drops a constraint or
// optimizes the wrong sign is caught immediately, with the same structured
// InvariantViolation records the per-slot auditor emits.
#pragma once

#include <string>
#include <vector>

#include "check/invariant_auditor.h"
#include "core/drift_penalty.h"

namespace grefar {

struct SolverCrosscheckOptions {
  int points_per_dim = 5;     // grid resolution per variable
  double feasibility_tol = 1e-6;
  /// Allowed objective excess over the brute-force grid optimum (absolute,
  /// plus the same amount relative to |optimum|). Exact solves (greedy, LP
  /// at beta = 0) pass with tight values; first-order solves (SPG, FW) need
  /// their convergence tolerance here.
  double objective_tol = 1e-6;
};

/// Checks an arbitrary candidate solution `u` for `problem` against the
/// brute-force oracle. `solver_name` labels the violation records. Returns
/// an empty vector when `u` is feasible and grid-optimal within tolerance.
std::vector<InvariantViolation> crosscheck_solution(
    const PerSlotProblem& problem, const std::vector<double>& u,
    const std::string& solver_name, const SolverCrosscheckOptions& options = {});

}  // namespace grefar

// Projected gradient descent over a CappedBoxPolytope.
//
// Monotone descent with a backtracking line search over the projection arc.
// It expects a C^1 objective — the per-slot GreFar problem blends its energy
// kinks (DESIGN.md "Kink smoothing") — and with the exact projection a
// backtracking sweep that finds no descent means the iterate is stationary
// to floating-point resolution, so the solve stops there. Adequate for the
// small per-slot problems GreFar solves every scheduling quantum.
//
// Each line-search candidate costs one projection and one fused
// value_and_gradient() evaluation: an accepted candidate already carries the
// gradient the next iteration steps along, so no point is evaluated twice.
// Before that evaluation a candidate that barely moved ends the sweep; the
// check first takes max |c_j - x_j| and computes the exact squared move norm
// only when that max is below 2 * tolerance — otherwise the norm provably
// exceeds the tolerance (DESIGN.md §11, "One row pass per PGD step").
#pragma once

#include <vector>

#include "solver/capped_box.h"
#include "solver/objective.h"
#include "util/annotations.h"

namespace grefar {

struct PgdOptions {
  int max_iterations = 400;
  double initial_step = 1.0;
  double backtrack_factor = 0.5;
  int max_backtracks = 30;
  double tolerance = 1e-8;  // stop when the iterate moves less than this
};

/// How a solve ended; the solution itself goes to the caller's buffer.
struct PgdStats {
  double objective = 0.0;
  int iterations = 0;
  bool converged = false;
};

struct PgdResult {
  std::vector<double> x;
  double objective = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Buffers one solve needs besides the solution. A caller that solves every
/// slot keeps one workspace, so steady-state solves do not allocate.
struct PgdWorkspace {
  std::vector<double> grad;            // gradient at the current iterate
  std::vector<double> candidate;       // line-search point
  std::vector<double> grad_candidate;  // gradient at the candidate
  std::vector<double> shifted;         // x - step * grad, before projection
};

/// Minimizes `objective` over `polytope`, starting from the projection of
/// `x0` (pass empty x0 to start from the origin projection).
GREFAR_DETERMINISTIC
PgdResult minimize_projected_gradient(const ConvexObjective& objective,
                                      const CappedBoxPolytope& polytope,
                                      std::vector<double> x0 = {},
                                      const PgdOptions& options = {});

/// Allocation-free variant: writes the solution into `x` and reuses `ws`.
/// `x0` may alias `x`. Bitwise equal to the returning overload.
GREFAR_HOT_PATH GREFAR_DETERMINISTIC
PgdStats minimize_projected_gradient(const ConvexObjective& objective,
                                     const CappedBoxPolytope& polytope,
                                     const std::vector<double>& x0,
                                     std::vector<double>& x, PgdWorkspace& ws,
                                     const PgdOptions& options = {});

}  // namespace grefar

// Projected gradient descent over a CappedBoxPolytope.
//
// Monotone descent with a backtracking line search over the projection arc.
// It expects a C^1 objective — the per-slot GreFar problem blends its energy
// kinks (DESIGN.md "Kink smoothing") — and with the exact projection a
// backtracking sweep that finds no descent means the iterate is stationary
// to floating-point resolution, so the solve stops there. Adequate for the
// small per-slot problems GreFar solves every scheduling quantum.
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

struct PgdResult {
  std::vector<double> x;
  double objective = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Minimizes `objective` over `polytope`, starting from the projection of
/// `x0` (pass empty x0 to start from the origin projection).
GREFAR_DETERMINISTIC
PgdResult minimize_projected_gradient(const ConvexObjective& objective,
                                      const CappedBoxPolytope& polytope,
                                      std::vector<double> x0 = {},
                                      const PgdOptions& options = {});

}  // namespace grefar

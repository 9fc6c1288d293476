// Spectral projected gradient (SPG2) over a CappedBoxPolytope.
//
// Birgin, Martinez & Raydan, SIAM J. Optim. 10(4), 2000. Each iteration
// projects once, P(x - lambda*g), with the Barzilai-Borwein step
// lambda = s's / s'y (clamped to [1e-10, 1e10]), and searches the segment
// x + alpha*d, d = P(x - lambda*g) - x, with the Grippo-Lampariello-Lucidi
// nonmonotone Armijo rule (memory 10, constant 1e-4, safeguarded quadratic
// backtracking). It expects a C^1 objective — the per-slot GreFar problem
// blends its energy kinks (DESIGN.md "Kink smoothing").
//
// The solve stops when ||d||_inf / min(lambda, 1) <= tolerance, which bounds
// the unit-step residual ||P(x - g) - x||_inf without another projection,
// or when the predicted decrease -g'd falls below 1e-12 * (1 + |f|) (flat
// optimal faces). The search is nonmonotone, so the best iterate seen is
// returned, not the last one. Every reduction (g'd, s's, s'y, ||d||_inf)
// is serial in index order and a column with a zero bound adds exact zeros,
// so compact and dense problems stay bitwise equal (DESIGN.md §11).
//
// Each line-search candidate costs one fused value_and_gradient()
// evaluation: an accepted candidate already carries the gradient the next
// iteration steps along, so no point is evaluated twice.
#pragma once

#include <vector>

#include "solver/capped_box.h"
#include "solver/objective.h"
#include "util/annotations.h"

namespace grefar {

struct PgdOptions {
  int max_iterations = 400;
  double tolerance = 1e-8;  // on ||d||_inf / min(lambda, 1)
};

/// Which test ended a solve.
enum class PgdStop {
  kNegligibleDecrease,  // -g'd <= 1e-12 * (1 + |f|)
  kResidual,            // ||d||_inf / min(lambda, 1) <= tolerance, the above not
  kLineSearch,          // the Armijo search gave up (non-finite objective)
  kIterationCap,        // max_iterations reached
};

/// How a solve ended; the solution itself goes to the caller's buffer.
struct PgdStats {
  double objective = 0.0;
  int iterations = 0;
  bool converged = false;  // stopped on the residual or the decrease test
  PgdStop stop = PgdStop::kIterationCap;
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
  std::vector<double> shifted;         // x - lambda * grad, before projection
  std::vector<double> projected;       // P(x - lambda * grad) = x + d
  std::vector<double> best;            // best iterate, once the current one is worse
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

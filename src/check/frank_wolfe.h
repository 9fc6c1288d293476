// Frank-Wolfe (conditional gradient) over a CappedBoxPolytope: an oracle
// for the per-slot solve (per_slot_oracles.h, pgd_oracle.h); no scheduler
// runs it.
//
// Each iteration calls the polytope's linear minimization oracle — which for
// the GreFar per-slot problem is exactly the beta=0 greedy — then takes an
// exact line-search step along the segment (the objective restricted to a
// segment is convex in one variable; we use ternary search). The Frank-Wolfe
// gap g_k = grad(x_k) . (x_k - s_k) upper-bounds the suboptimality, giving a
// certified stopping rule: a solve stops once the gap is at most 1e-7. Each
// line search takes 48 ternary-search refinements.
//
// Near a face the FW gap zig-zags around a loose plateau long after the
// objective has stopped moving (two-vertex crawl with step sizes ~1e-6), so
// the certificate alone may never fire. A solve therefore also stops after
// 8 consecutive iterations that each improve the objective by less than
// 1e-11 * (1 + |f|); that stall rule is what lets a warm-started solve (x0
// near the optimum) return in a few iterations instead of burning the whole
// budget.
#pragma once

#include <vector>

#include "solver/capped_box.h"
#include "solver/objective.h"
#include "util/annotations.h"

namespace grefar {

struct FrankWolfeOptions {
  int max_iterations = 500;
};

struct FrankWolfeResult {
  std::vector<double> x;
  double objective = 0.0;
  double gap = 0.0;  // final duality-gap certificate
  int iterations = 0;
  bool converged = false;
};

GREFAR_DETERMINISTIC
FrankWolfeResult minimize_frank_wolfe(const ConvexObjective& objective,
                                      const CappedBoxPolytope& polytope,
                                      std::vector<double> x0 = {},
                                      const FrankWolfeOptions& options = {});

}  // namespace grefar

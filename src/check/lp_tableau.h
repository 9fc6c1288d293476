// The original dense two-phase tableau simplex, kept as an independent
// oracle for the revised simplex in solver/lp.h: lp_test's random-LP
// property test checks that both agree on status and objective. Upper
// bounds are expanded into singleton rows and pivoting uses Bland's rule;
// O(m * n) per pivot with m counting every bound row — no solver path runs
// it.
#pragma once

#include "solver/lp.h"

namespace grefar {

/// Solves `lp` with the dense tableau simplex (cold, two-phase). The
/// returned solution carries no basis.
LpSolution solve_lp_tableau(const LinearProgram& lp);

}  // namespace grefar

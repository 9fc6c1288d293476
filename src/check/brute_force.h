// Test-only oracles over a CappedBoxPolytope: a feasibility predicate, and a
// brute-force grid minimizer that exhaustively evaluates a regular grid
// (feasible points only) to cross-check the greedy / Frank-Wolfe / PGD
// solvers on small instances.
#pragma once

#include <functional>
#include <vector>

#include "solver/capped_box.h"

namespace grefar {

/// True if x satisfies all bounds and caps of `polytope` within `tol`.
bool is_feasible(const CappedBoxPolytope& polytope, const std::vector<double>& x,
                 double tol = 1e-9);

struct BruteForceResult {
  std::vector<double> x;
  double objective = 0.0;
  std::size_t evaluated = 0;
};

/// Minimizes `f` over grid points of the polytope with `points_per_dim`
/// samples per axis (including both endpoints of each variable's range).
/// Intended for dim <= ~6. Infinite upper bounds must not appear; group
/// caps bound the effective range instead.
BruteForceResult minimize_brute_force(
    const std::function<double(const std::vector<double>&)>& f,
    const CappedBoxPolytope& polytope, int points_per_dim);

}  // namespace grefar

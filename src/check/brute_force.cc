#include "check/brute_force.h"

#include <cmath>
#include <limits>

#include "util/check.h"

namespace grefar {

bool is_feasible(const CappedBoxPolytope& polytope, const std::vector<double>& x,
                 double tol) {
  const std::vector<double>& ub = polytope.ub_;
  GREFAR_CHECK(x.size() == ub.size());
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j] < -tol || x[j] > ub[j] + tol) return false;
  }
  for (const auto& g : polytope.groups_) {
    double sum = 0.0;
    if (g.contiguous) {
      for (std::size_t j = g.begin; j < g.end; ++j) sum += x[j];
    } else {
      for (std::size_t j : g.indices) sum += x[j];
    }
    if (sum > g.cap + tol) return false;
  }
  return true;
}

BruteForceResult minimize_brute_force(
    const std::function<double(const std::vector<double>&)>& f,
    const CappedBoxPolytope& polytope, int points_per_dim) {
  GREFAR_CHECK(points_per_dim >= 2);
  const std::size_t n = polytope.dim();
  GREFAR_CHECK_MSG(n <= 8, "brute force limited to small dimensions");
  for (double ub : polytope.upper_bounds()) {
    GREFAR_CHECK_MSG(std::isfinite(ub), "brute force needs finite upper bounds");
  }

  BruteForceResult best;
  best.objective = std::numeric_limits<double>::infinity();
  std::vector<double> x(n, 0.0);

  std::function<void(std::size_t)> recurse = [&](std::size_t dim) {
    if (dim == n) {
      if (!is_feasible(polytope, x, 1e-9)) return;
      ++best.evaluated;
      double v = f(x);
      if (v < best.objective) {
        best.objective = v;
        best.x = x;
      }
      return;
    }
    double ub = polytope.upper_bounds()[dim];
    for (int i = 0; i < points_per_dim; ++i) {
      x[dim] = ub * static_cast<double>(i) / (points_per_dim - 1);
      recurse(dim + 1);
    }
  };
  recurse(0);
  GREFAR_CHECK_MSG(best.evaluated > 0, "no feasible grid point found");
  return best;
}

}  // namespace grefar

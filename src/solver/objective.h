// ConvexObjective: interface consumed by the first-order solvers.
//
// The per-slot GreFar objective (energy + queue terms + quadratic fairness
// penalty) implements this; it must be convex and C^1 on the feasible set
// (the piecewise-linear energy term has its kinks smoothed for exactly this
// reason, DESIGN.md "Kink smoothing").
#pragma once

#include <vector>

namespace grefar {

class ConvexObjective {
 public:
  virtual ~ConvexObjective() = default;

  /// Objective value at x.
  virtual double value(const std::vector<double>& x) const = 0;

  /// Writes the gradient at x into `out`. Implementations resize `out` to
  /// x.size() themselves; a caller that reuses one buffer across calls pays
  /// for the allocation only on its first call (or a dimension change).
  virtual void gradient(const std::vector<double>& x, std::vector<double>& out) const = 0;

  /// Value and gradient at x in one call, for solvers that need both at the
  /// same point (projected gradient evaluates every candidate this way).
  /// Overrides must return exactly value(x) and write exactly gradient(x),
  /// bit for bit; they exist to share the work of the two evaluations (the
  /// per-slot problem reduces the rows of x once instead of twice).
  virtual double value_and_gradient(const std::vector<double>& x,
                                    std::vector<double>& out) const {
    gradient(x, out);
    return value(x);
  }
};

}  // namespace grefar

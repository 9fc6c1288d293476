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

  /// Writes the gradient at x into `out` (resized by the caller).
  virtual void gradient(const std::vector<double>& x, std::vector<double>& out) const = 0;
};

}  // namespace grefar

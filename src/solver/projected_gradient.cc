#include "solver/projected_gradient.h"

#include <cmath>
#include <cstdint>

#include "obs/counters.h"
#include "util/check.h"

namespace grefar {

PgdResult minimize_projected_gradient(const ConvexObjective& objective,
                                      const CappedBoxPolytope& polytope,
                                      std::vector<double> x0,
                                      const PgdOptions& options) {
  const std::size_t n = polytope.dim();
  if (x0.empty()) x0.assign(n, 0.0);
  GREFAR_CHECK(x0.size() == n);

  PgdResult result;
  std::vector<double> x = polytope.project(x0);
  double fx = objective.value(x);

  std::vector<double> grad(n);
  std::vector<double> candidate(n);
  std::vector<double> projected(n);  // project_into target, reused
  double step = options.initial_step;

  // Accumulated locally and flushed once per solve (obs hot-loop discipline).
  std::uint64_t projections = 1;  // the x0 projection above

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++result.iterations;
    objective.gradient(x, grad);

    // Backtracking over the projection arc: x(step) = proj(x - step*grad).
    bool improved = false;
    double trial_step = step;
    for (int bt = 0; bt < options.max_backtracks; ++bt) {
      for (std::size_t j = 0; j < n; ++j) projected[j] = x[j] - trial_step * grad[j];
      polytope.project_into(projected, candidate);
      ++projections;
      // Tiny-move shortcut, checked *before* paying for an objective
      // evaluation: ||proj(x - t*grad) - x|| is non-decreasing in t, so a
      // negligible move at the current step means every smaller backtracking
      // step moves even less — and at the full (never-shrinking) first step
      // it means the projected gradient itself vanishes, i.e. stationarity.
      double move = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        move += (candidate[j] - x[j]) * (candidate[j] - x[j]);
      }
      if (std::sqrt(move) < options.tolerance) break;
      double fc = objective.value(candidate);
      if (fc < fx - 1e-15) {
        // Accept; allow the step to grow again slowly. Descent is monotone,
        // so the current iterate is always the best one seen.
        x.swap(candidate);
        fx = fc;
        step = trial_step * 1.5;
        improved = true;
        break;
      }
      trial_step *= options.backtrack_factor;
    }
    // The objective is C^1 (the per-slot problem smooths its energy kinks)
    // and the projection is exact, so a sweep that finds no descent — every
    // step too small to move, or none decreasing — means x is stationary to
    // floating-point resolution. Stop there.
    if (!improved) {
      result.converged = true;
      break;
    }
  }
  result.x = std::move(x);
  result.objective = fx;
  obs::count("pgd.solves");
  obs::count("pgd.iterations", static_cast<std::uint64_t>(result.iterations));
  obs::count("pgd.projections", projections);
  return result;
}

}  // namespace grefar

#include "solver/projected_gradient.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "obs/counters.h"
#include "util/check.h"

namespace grefar {

namespace {

/// max_j |c_j - x_j| over four independent lanes; max does not depend on the
/// order it sees its operands in. std::max keeps its first argument when
/// the second is NaN, so NaN entries are skipped here (the exact sum below
/// still sees them).
double max_abs_diff(const double* c, const double* x, std::size_t n) {
  double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    m0 = std::max(m0, std::abs(c[j] - x[j]));
    m1 = std::max(m1, std::abs(c[j + 1] - x[j + 1]));
    m2 = std::max(m2, std::abs(c[j + 2] - x[j + 2]));
    m3 = std::max(m3, std::abs(c[j + 3] - x[j + 3]));
  }
  for (; j < n; ++j) m0 = std::max(m0, std::abs(c[j] - x[j]));
  return std::max(std::max(m0, m1), std::max(m2, m3));
}

/// The line search's tiny-move test, sqrt(sum_j (c_j - x_j)^2) < tolerance
/// with the sum taken serially. The sum is only formed when the max entry
/// is below `exact_below`: if some |d| >= 2 * tolerance, the rounded sum of
/// non-negative terms is at least fl(d^2) > tolerance^2, so the exact test
/// would say "not tiny" as well.
bool moved_less_than(const std::vector<double>& c, const std::vector<double>& x,
                     double tolerance, double exact_below) {
  const std::size_t n = x.size();
  if (!(max_abs_diff(c.data(), x.data(), n) < exact_below)) return false;
  double move = 0.0;
  for (std::size_t j = 0; j < n; ++j) move += (c[j] - x[j]) * (c[j] - x[j]);
  return std::sqrt(move) < tolerance;
}

}  // namespace

PgdResult minimize_projected_gradient(const ConvexObjective& objective,
                                      const CappedBoxPolytope& polytope,
                                      std::vector<double> x0,
                                      const PgdOptions& options) {
  PgdWorkspace ws;
  PgdResult result;
  const PgdStats stats =
      minimize_projected_gradient(objective, polytope, x0, result.x, ws, options);
  result.objective = stats.objective;
  result.iterations = stats.iterations;
  result.converged = stats.converged;
  return result;
}

PgdStats minimize_projected_gradient(const ConvexObjective& objective,
                                     const CappedBoxPolytope& polytope,
                                     const std::vector<double>& x0,
                                     std::vector<double>& x, PgdWorkspace& ws,
                                     const PgdOptions& options) {
  const std::size_t n = polytope.dim();
  GREFAR_CHECK(x0.empty() || x0.size() == n);
  std::vector<double>& shifted = ws.shifted;
  std::vector<double>& candidate = ws.candidate;
  std::vector<double>& grad = ws.grad;
  std::vector<double>& grad_c = ws.grad_candidate;

  // Amortized: the workspace buffers reach the high-water dimension on the
  // first solves and are reused in place afterwards.
  if (x0.empty()) {
    shifted.assign(n, 0.0);  // NOLINT(grefar-hot-path-alloc)
  } else if (&x0 == &x) {
    shifted.assign(x0.begin(), x0.end());  // NOLINT(grefar-hot-path-alloc)
  }
  polytope.project_into(x0.empty() || &x0 == &x ? shifted : x0, x);
  shifted.resize(n);  // NOLINT(grefar-hot-path-alloc)

  PgdStats stats;
  double fx = objective.value_and_gradient(x, grad);
  double step = options.initial_step;
  // Below ~1e-150, (2 * tolerance)^2 can underflow and the pretest's bound
  // no longer holds, so every candidate takes the exact test.
  const double exact_below = options.tolerance >= 1e-150
                                 ? 2.0 * options.tolerance
                                 : std::numeric_limits<double>::infinity();

  // Accumulated locally and flushed once per solve (obs hot-loop discipline).
  std::uint64_t projections = 1;  // the x0 projection above

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++stats.iterations;

    // Backtracking over the projection arc: x(step) = proj(x - step*grad).
    bool improved = false;
    double trial_step = step;
    for (int bt = 0; bt < options.max_backtracks; ++bt) {
      for (std::size_t j = 0; j < n; ++j) shifted[j] = x[j] - trial_step * grad[j];
      polytope.project_into(shifted, candidate);
      ++projections;
      // Tiny-move shortcut, checked *before* paying for an objective
      // evaluation: ||proj(x - t*grad) - x|| is non-decreasing in t, so a
      // negligible move at the current step means every smaller backtracking
      // step moves even less — and at the full (never-shrinking) first step
      // it means the projected gradient itself vanishes, i.e. stationarity.
      if (moved_less_than(candidate, x, options.tolerance, exact_below)) break;
      const double fc = objective.value_and_gradient(candidate, grad_c);
      if (fc < fx - 1e-15) {
        // Accept; allow the step to grow again slowly. Descent is monotone,
        // so the current iterate is always the best one seen, and its
        // gradient was computed along with its value.
        x.swap(candidate);
        grad.swap(grad_c);
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
      stats.converged = true;
      break;
    }
  }
  stats.objective = fx;
  obs::count("pgd.solves");
  obs::count("pgd.iterations", static_cast<std::uint64_t>(stats.iterations));
  obs::count("pgd.projections", projections);
  return stats;
}

}  // namespace grefar

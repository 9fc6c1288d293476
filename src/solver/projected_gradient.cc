#include "solver/projected_gradient.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/counters.h"
#include "util/check.h"

namespace grefar {

namespace {

// GLL nonmonotone Armijo: the reference is the largest of the last kMemory
// objective values, and the sufficient-decrease constant is kArmijo.
constexpr int kMemory = 10;
constexpr double kArmijo = 1e-4;
// The spectral step is clamped to [kLambdaMin, kLambdaMax].
constexpr double kLambdaMin = 1e-10;
constexpr double kLambdaMax = 1e10;
// Safeguarded quadratic backtracking keeps the new alpha in
// [kSigma1, kSigma2] * alpha, else halves it.
constexpr double kSigma1 = 0.1;
constexpr double kSigma2 = 0.9;
// Stop when the predicted decrease -g'd is below this, relative to 1 + |f|.
constexpr double kNegligibleDecrease = 1e-12;
// After this many step cuts the search gives up and the solve stops with
// the best iterate. The predicted-decrease stop keeps
// -g'd above the objective's rounding, so for a finite C^1 objective the
// Armijo test passes after a few cuts; the cap ends a NaN objective.
constexpr int kMaxBacktracks = 50;

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
  std::vector<double>& projected = ws.projected;
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
  shifted.resize(n);    // NOLINT(grefar-hot-path-alloc)
  candidate.resize(n);  // NOLINT(grefar-hot-path-alloc)

  PgdStats stats;
  double fx = objective.value_and_gradient(x, grad);
  double lambda = 1.0;
  double recent[kMemory];
  std::fill_n(recent, kMemory, fx);
  // The best iterate is x itself until an accepted step leaves it for a
  // worse point; only then is it copied out to ws.best.
  double f_best = fx;
  bool best_is_current = true;

  // Accumulated locally and flushed once per solve (obs hot-loop discipline).
  std::uint64_t projections = 1;  // the x0 projection above

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++stats.iterations;
    for (std::size_t j = 0; j < n; ++j) shifted[j] = x[j] - lambda * grad[j];
    polytope.project_into(shifted, projected);
    ++projections;
    // d = projected - x. Serial in index order; a zero-bound column has
    // x = projected = 0 and adds exact zeros.
    double gtd = 0.0;
    double d_max = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double d = projected[j] - x[j];
      gtd += grad[j] * d;
      d_max = std::max(d_max, std::abs(d));
    }
    // ||P(x - l*g) - x|| grows with l and shrinks divided by l, so the
    // residual test bounds the unit-step residual ||P(x - g) - x||_inf at any
    // lambda in exact arithmetic. In floating point at lambda ~ 1e10,
    // x - lambda*g has lost x's low digits, and d can round to 0 with the
    // unit-step residual ~1e-6. Such a point also has a negligible
    // predicted decrease, and the stop is reported as that.
    const bool negligible = -gtd <= kNegligibleDecrease * (1.0 + std::abs(fx));
    if (negligible || d_max / std::min(lambda, 1.0) <= options.tolerance) {
      stats.converged = true;
      stats.stop = negligible ? PgdStop::kNegligibleDecrease : PgdStop::kResidual;
      break;
    }

    double f_ref = recent[0];
    for (int k = 1; k < kMemory; ++k) f_ref = std::max(f_ref, recent[k]);

    // alpha = 1 evaluates the projected point itself (feasible as the
    // projection left it); shorter steps evaluate x + alpha*d.
    std::vector<double>* trial = &projected;
    double alpha = 1.0;
    double fc = objective.value_and_gradient(projected, grad_c);
    bool accepted = false;
    for (int bt = 0;; ++bt) {
      if (fc <= f_ref + kArmijo * alpha * gtd) {
        accepted = true;
        break;
      }
      if (bt == kMaxBacktracks) break;
      const double a_quad = -0.5 * alpha * alpha * gtd / (fc - fx - alpha * gtd);
      const bool safe = a_quad >= kSigma1 * alpha && a_quad <= kSigma2 * alpha;
      alpha = safe ? a_quad : 0.5 * alpha;
      for (std::size_t j = 0; j < n; ++j) {
        candidate[j] = x[j] + alpha * (projected[j] - x[j]);
      }
      trial = &candidate;
      fc = objective.value_and_gradient(candidate, grad_c);
    }
    if (!accepted) {
      stats.stop = PgdStop::kLineSearch;
      break;
    }

    double ss = 0.0;
    double sy = 0.0;
    const std::vector<double>& next = *trial;
    for (std::size_t j = 0; j < n; ++j) {
      const double s = next[j] - x[j];
      ss += s * s;
      sy += s * (grad_c[j] - grad[j]);
    }
    if (fc < f_best) {
      f_best = fc;
      best_is_current = true;
    } else if (best_is_current) {
      ws.best.assign(x.begin(), x.end());  // NOLINT(grefar-hot-path-alloc)
      best_is_current = false;
    }
    x.swap(*trial);
    grad.swap(grad_c);
    fx = fc;
    recent[(iter + 1) % kMemory] = fx;
    lambda = sy > 0.0 ? std::clamp(ss / sy, kLambdaMin, kLambdaMax) : kLambdaMax;
  }
  if (!best_is_current) x.swap(ws.best);
  stats.objective = f_best;
  obs::count("pgd.solves");
  obs::count("pgd.iterations", static_cast<std::uint64_t>(stats.iterations));
  obs::count("pgd.projections", projections);
  return stats;
}

}  // namespace grefar

#include "check/frank_wolfe.h"

#include <cmath>
#include <cstdint>

#include "obs/counters.h"
#include "obs/profile.h"
#include "util/check.h"

namespace grefar {

namespace {
// Stop when the FW gap certificate is at most this.
constexpr double kGapTolerance = 1e-7;
// Ternary-search refinements per line search.
constexpr int kLineSearchIters = 48;
// The stall stop (see the header comment).
constexpr double kProgressTolerance = 1e-11;
constexpr int kStallIterations = 8;
}  // namespace

FrankWolfeResult minimize_frank_wolfe(const ConvexObjective& objective,
                                      const CappedBoxPolytope& polytope,
                                      std::vector<double> x0,
                                      const FrankWolfeOptions& options) {
  const std::size_t n = polytope.dim();
  if (x0.empty()) x0.assign(n, 0.0);
  GREFAR_CHECK(x0.size() == n);

  FrankWolfeResult result;
  std::vector<double> x = polytope.project(x0);
  std::vector<double> grad(n);
  std::vector<double> trial(n);
  std::vector<double> s(n);  // LMO vertex, reused across iterations

  // Per-phase times are accumulated into locals and flushed once per solve:
  // a ScopedTimer pair per iteration is measurable overhead in the solver's
  // tight loop even when profiling is off (see the counters.h hot-loop
  // rule). PhaseClock keeps the clock reads inside src/obs, behind the
  // profiling gate — this function must contain no direct clock calls.
  obs::PhaseClock phase;
  double lmo_ns = 0.0;
  double line_search_ns = 0.0;
  std::uint64_t line_searches = 0;

  double f_prev = objective.value(x);
  int stall = 0;
  bool gap_stop = false;
  bool stall_stop = false;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++result.iterations;
    phase.start();
    objective.gradient(x, grad);
    polytope.minimize_linear_into(grad, s);
    lmo_ns += phase.lap_ns();

    double gap = 0.0;
    for (std::size_t j = 0; j < n; ++j) gap += grad[j] * (x[j] - s[j]);
    result.gap = gap;
    if (gap <= kGapTolerance) {
      result.converged = true;
      gap_stop = true;
      break;
    }

    // Exact line search on [0,1] along x + t (s - x) by ternary search
    // (objective is convex along the segment).
    auto value_at = [&](double t) {
      for (std::size_t j = 0; j < n; ++j) trial[j] = x[j] + t * (s[j] - x[j]);
      return objective.value(trial);
    };
    double lo = 0.0, hi = 1.0;
    phase.start();
    for (int ls = 0; ls < kLineSearchIters; ++ls) {
      double m1 = lo + (hi - lo) / 3.0;
      double m2 = hi - (hi - lo) / 3.0;
      if (value_at(m1) <= value_at(m2)) hi = m2;
      else lo = m1;
    }
    if (phase.enabled()) {
      line_search_ns += phase.lap_ns();
      ++line_searches;
    }
    double t = 0.5 * (lo + hi);
    // Guard against a stalled step: fall back to the classic 2/(k+2) rate.
    if (t < 1e-12) t = 2.0 / (iter + 2.0);
    for (std::size_t j = 0; j < n; ++j) x[j] += t * (s[j] - x[j]);

    // Stall stop: the line search is exact, so the objective is
    // non-increasing and a run of negligible-progress iterations means the
    // remaining zig-zag only polishes the certificate.
    double f = objective.value(x);
    double min_progress = kProgressTolerance * (1.0 + std::abs(f));
    stall = f_prev - f < min_progress ? stall + 1 : 0;
    f_prev = f;
    if (stall >= kStallIterations) {
      result.converged = true;
      stall_stop = true;
      break;
    }
  }

  if (phase.enabled()) {
    obs::record("fw.lmo", lmo_ns, static_cast<std::uint64_t>(result.iterations));
    obs::record("fw.line_search", line_search_ns, line_searches);
  }

  obs::count("fw.solves");
  obs::count("fw.iterations", static_cast<std::uint64_t>(result.iterations));
  if (gap_stop) {
    obs::count("fw.gap_stops");
  } else if (stall_stop) {
    obs::count("fw.stall_stops");
  } else {
    obs::count("fw.iteration_limit_stops");
  }

  result.objective = objective.value(x);
  result.x = std::move(x);
  return result;
}

}  // namespace grefar

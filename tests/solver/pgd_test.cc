#include "solver/projected_gradient.h"

#include <gtest/gtest.h>

#include <cmath>

#include "check/brute_force.h"
#include "util/rng.h"

namespace grefar {
namespace {

/// Quadratic 0.5 ||x - target||^2 — projection in disguise.
class QuadraticObjective final : public ConvexObjective {
 public:
  explicit QuadraticObjective(std::vector<double> target) : target_(std::move(target)) {}

  double value(const std::vector<double>& x) const override {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      s += 0.5 * (x[i] - target_[i]) * (x[i] - target_[i]);
    }
    return s;
  }
  void gradient(const std::vector<double>& x, std::vector<double>& out) const override {
    out.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] - target_[i];
  }

 private:
  std::vector<double> target_;
};

/// Linear + quadratic + smoothly-blended hinge, resembling the (smoothed)
/// GreFar slot objective. The hinge penalty 2*(total - kink)_+ has its slope
/// blended over [kink - w, kink + w] so the function is C^1 — the contract
/// the first-order solvers document (see PerSlotProblem's kink smoothing).
class MixedObjective final : public ConvexObjective {
 public:
  MixedObjective(std::vector<double> slopes, double kink, double quad)
      : slopes_(std::move(slopes)), kink_(kink), quad_(quad) {}

  double value(const std::vector<double>& x) const override {
    double s = 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      s += slopes_[i] * x[i];
      total += x[i];
    }
    s += quad_ * total * total;
    s += hinge_value(total);
    return s;
  }
  void gradient(const std::vector<double>& x, std::vector<double>& out) const override {
    out.resize(x.size());
    double total = 0.0;
    for (double v : x) total += v;
    double common = 2.0 * quad_ * total + hinge_slope(total);
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = slopes_[i] + common;
  }

 private:
  static constexpr double kBlend = 0.1;  // smoothing half-width
  double hinge_slope(double total) const {
    if (total <= kink_ - kBlend) return 0.0;
    if (total >= kink_ + kBlend) return 2.0;
    return 2.0 * (total - (kink_ - kBlend)) / (2.0 * kBlend);
  }
  double hinge_value(double total) const {
    if (total <= kink_ - kBlend) return 0.0;
    if (total >= kink_ + kBlend) return 2.0 * (total - kink_);
    double z = total - (kink_ - kBlend);
    return 0.5 * z * hinge_slope(total);  // integral of the linear ramp
  }

  std::vector<double> slopes_;
  double kink_;
  double quad_;
};

/// One solve from `x0` into a fresh buffer and workspace.
struct Solved {
  std::vector<double> x;
  PgdStats stats;
};
Solved solve(const ConvexObjective& objective, const CappedBoxPolytope& polytope,
             const std::vector<double>& x0 = {}, const PgdOptions& options = {}) {
  Solved solved;
  PgdWorkspace ws;
  solved.stats =
      minimize_projected_gradient(objective, polytope, x0, solved.x, ws, options);
  return solved;
}

TEST(Pgd, UnconstrainedInteriorMinimum) {
  CappedBoxPolytope p({10.0, 10.0});
  QuadraticObjective obj({2.0, 3.0});
  auto result = solve(obj, p);
  EXPECT_NEAR(result.x[0], 2.0, 1e-4);
  EXPECT_NEAR(result.x[1], 3.0, 1e-4);
  EXPECT_NEAR(result.stats.objective, 0.0, 1e-7);
}

TEST(Pgd, BoxActiveAtOptimum) {
  CappedBoxPolytope p({1.0, 1.0});
  QuadraticObjective obj({5.0, 0.5});
  auto result = solve(obj, p);
  EXPECT_NEAR(result.x[0], 1.0, 1e-5);
  EXPECT_NEAR(result.x[1], 0.5, 1e-5);
}

TEST(Pgd, CapActiveAtOptimum) {
  CappedBoxPolytope p({5.0, 5.0});
  p.add_group({0, 1}, 2.0);
  QuadraticObjective obj({3.0, 3.0});
  auto result = solve(obj, p);
  EXPECT_NEAR(result.x[0], 1.0, 1e-5);
  EXPECT_NEAR(result.x[1], 1.0, 1e-5);
}

TEST(Pgd, StartingPointDoesNotChangeOptimum) {
  CappedBoxPolytope p({4.0, 4.0});
  p.add_group({0, 1}, 5.0);
  QuadraticObjective obj({1.0, 2.0});
  auto a = solve(obj, p, {0.0, 0.0});
  auto b = solve(obj, p, {4.0, 1.0});
  EXPECT_NEAR(a.stats.objective, b.stats.objective, 1e-6);
}

TEST(Pgd, MatchesBruteForceOnMixedObjective) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> slopes{rng.uniform(-2.0, 1.0), rng.uniform(-2.0, 1.0),
                               rng.uniform(-2.0, 1.0)};
    MixedObjective obj(slopes, 1.5, 0.3);
    CappedBoxPolytope p({1.0, 1.5, 2.0});
    p.add_group({0, 1, 2}, rng.uniform(1.0, 3.5));

    auto pgd = solve(obj, p);
    auto brute = minimize_brute_force(
        [&](const std::vector<double>& x) { return obj.value(x); }, p, 21);
    EXPECT_LE(pgd.stats.objective, brute.objective + 1e-3) << "trial " << trial;
  }
}

TEST(Pgd, ReportsIterationsAndConvergence) {
  CappedBoxPolytope p({1.0});
  QuadraticObjective obj({0.5});
  auto result = solve(obj, p);
  EXPECT_GT(result.stats.iterations, 0);
  EXPECT_TRUE(result.stats.converged);
}

TEST(Pgd, ZeroIterationBudgetReturnsProjectedStart) {
  CappedBoxPolytope p({1.0});
  QuadraticObjective obj({0.5});
  PgdOptions options;
  options.max_iterations = 0;
  auto result = solve(obj, p, {5.0}, options);
  EXPECT_NEAR(result.x[0], 1.0, 1e-12);  // projected start
}

/// An objective whose value is NaN everywhere: no step passes the Armijo
/// test.
class NanObjective final : public ConvexObjective {
 public:
  double value(const std::vector<double>&) const override { return std::nan(""); }
  void gradient(const std::vector<double>& x, std::vector<double>& out) const override {
    out.assign(x.size(), -1.0);
  }
};

TEST(Pgd, StatsNameTheTestThatEndedTheSolve) {
  CappedBoxPolytope p({1.0});
  PgdWorkspace ws;
  std::vector<double> x;
  QuadraticObjective obj({0.5});
  // One unit step lands on the minimizer, where g = 0 predicts no decrease.
  const PgdStats solved = minimize_projected_gradient(obj, p, {}, x, ws);
  EXPECT_TRUE(solved.converged);
  EXPECT_EQ(solved.stop, PgdStop::kNegligibleDecrease);
  EXPECT_DOUBLE_EQ(x[0], 0.5);

  PgdOptions options;
  options.max_iterations = 0;
  const PgdStats capped = minimize_projected_gradient(obj, p, {}, x, ws, options);
  EXPECT_FALSE(capped.converged);
  EXPECT_EQ(capped.stop, PgdStop::kIterationCap);

  NanObjective nan;
  const PgdStats failed = minimize_projected_gradient(nan, p, {}, x, ws);
  EXPECT_FALSE(failed.converged);
  EXPECT_EQ(failed.stop, PgdStop::kLineSearch);
}

}  // namespace
}  // namespace grefar

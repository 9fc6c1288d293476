#include "solver/capped_box.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/check.h"
#include "util/rng.h"

namespace grefar {
namespace {

double dist2(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
  return s;
}

TEST(CappedBox, RejectsNegativeBounds) {
  EXPECT_THROW(CappedBoxPolytope({1.0, -0.5}), ContractViolation);
}

TEST(CappedBox, RejectsOverlappingGroups) {
  CappedBoxPolytope p({1.0, 1.0, 1.0});
  p.add_group({0, 1}, 1.0);
  EXPECT_THROW(p.add_group({1, 2}, 1.0), ContractViolation);
}

TEST(CappedBox, RejectsNegativeCap) {
  CappedBoxPolytope p({1.0});
  EXPECT_THROW(p.add_group({0}, -1.0), ContractViolation);
}

TEST(CappedBox, ContainsChecksBoxAndCap) {
  CappedBoxPolytope p({2.0, 2.0});
  p.add_group({0, 1}, 3.0);
  EXPECT_TRUE(p.contains({1.0, 1.0}));
  EXPECT_TRUE(p.contains({2.0, 1.0}));
  EXPECT_FALSE(p.contains({2.0, 2.0}));  // cap 3 violated
  EXPECT_FALSE(p.contains({-0.1, 0.0}));
  EXPECT_FALSE(p.contains({2.5, 0.0}));
}

TEST(CappedBox, ProjectInsideIsIdentity) {
  CappedBoxPolytope p({2.0, 2.0});
  p.add_group({0, 1}, 3.0);
  auto x = p.project({0.5, 1.0});
  EXPECT_DOUBLE_EQ(x[0], 0.5);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
}

TEST(CappedBox, ProjectClampsBoxOnly) {
  CappedBoxPolytope p({1.0, 1.0});
  auto x = p.project({-3.0, 5.0});
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
}

TEST(CappedBox, ProjectOntoCapIsSymmetric) {
  CappedBoxPolytope p({10.0, 10.0});
  p.add_group({0, 1}, 2.0);
  auto x = p.project({3.0, 3.0});
  EXPECT_NEAR(x[0], 1.0, 1e-7);
  EXPECT_NEAR(x[1], 1.0, 1e-7);
}

TEST(CappedBox, ProjectRespectsUpperBoundDuringCapProjection) {
  // y = (5, 0.6), ub = (1, 1), cap = 1.2. Clamping first would give
  // (1, 0.6) -> lambda shift; the true projection is clamp(y - lambda).
  CappedBoxPolytope p({1.0, 1.0});
  p.add_group({0, 1}, 1.2);
  auto x = p.project({5.0, 0.6});
  EXPECT_TRUE(p.contains(x, 1e-6));
  EXPECT_NEAR(x[0] + x[1], 1.2, 1e-6);
  // x0 should stay at its bound (y0 - lambda >= 1 for the solving lambda).
  EXPECT_NEAR(x[0], 1.0, 1e-6);
  EXPECT_NEAR(x[1], 0.2, 1e-6);
}

TEST(CappedBox, ProjectionIsClosestFeasiblePoint) {
  // Verify the projection property against random feasible points.
  Rng rng(7);
  CappedBoxPolytope p({1.5, 2.0, 1.0});
  p.add_group({0, 1, 2}, 2.5);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> y{rng.uniform(-1.0, 4.0), rng.uniform(-1.0, 4.0),
                          rng.uniform(-1.0, 4.0)};
    auto proj = p.project(y);
    ASSERT_TRUE(p.contains(proj, 1e-6));
    double proj_d = dist2(proj, y);
    for (int s = 0; s < 200; ++s) {
      std::vector<double> z{rng.uniform(0.0, 1.5), rng.uniform(0.0, 2.0),
                            rng.uniform(0.0, 1.0)};
      if (!p.contains(z, 0.0)) continue;
      EXPECT_GE(dist2(z, y) + 1e-6, proj_d)
          << "found a closer feasible point than the projection";
    }
  }
}

TEST(CappedBox, MinimizeLinearBoxOnly) {
  CappedBoxPolytope p({2.0, 3.0});
  auto x = p.minimize_linear({-1.0, 0.5});
  EXPECT_DOUBLE_EQ(x[0], 2.0);  // negative cost saturates
  EXPECT_DOUBLE_EQ(x[1], 0.0);  // positive cost stays at zero
}

TEST(CappedBox, MinimizeLinearFillsCheapestFirst) {
  CappedBoxPolytope p({2.0, 2.0, 2.0});
  p.add_group({0, 1, 2}, 3.0);
  auto x = p.minimize_linear({-3.0, -1.0, -2.0});
  EXPECT_DOUBLE_EQ(x[0], 2.0);  // most negative first
  EXPECT_DOUBLE_EQ(x[2], 1.0);  // then next, fractional at the cap
  EXPECT_DOUBLE_EQ(x[1], 0.0);
}

TEST(CappedBox, MinimizeLinearIgnoresNonNegativeCosts) {
  CappedBoxPolytope p({2.0, 2.0});
  p.add_group({0, 1}, 3.0);
  auto x = p.minimize_linear({0.0, 1.0});
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.0);
}

TEST(CappedBox, MinimizeLinearIsOptimalAgainstRandomFeasiblePoints) {
  Rng rng(21);
  CappedBoxPolytope p({1.0, 2.0, 0.5, 1.5});
  p.add_group({0, 1}, 1.8);
  p.add_group({2, 3}, 1.0);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> c{rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                          rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
    auto x = p.minimize_linear(c);
    ASSERT_TRUE(p.contains(x, 1e-9));
    double fx = 0.0;
    for (std::size_t i = 0; i < 4; ++i) fx += c[i] * x[i];
    for (int s = 0; s < 300; ++s) {
      std::vector<double> z{rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0),
                            rng.uniform(0.0, 0.5), rng.uniform(0.0, 1.5)};
      if (!p.contains(z, 0.0)) continue;
      double fz = 0.0;
      for (std::size_t i = 0; i < 4; ++i) fz += c[i] * z[i];
      EXPECT_GE(fz + 1e-9, fx);
    }
  }
}

TEST(CappedBox, ZeroCapGroupPinsToZero) {
  CappedBoxPolytope p({5.0, 5.0});
  p.add_group({0, 1}, 0.0);
  auto x = p.project({3.0, 3.0});
  EXPECT_NEAR(x[0], 0.0, 1e-9);
  EXPECT_NEAR(x[1], 0.0, 1e-9);
  auto lmo = p.minimize_linear({-1.0, -1.0});
  EXPECT_DOUBLE_EQ(lmo[0] + lmo[1], 0.0);
}

/// Reference projection of one group: clamp(y - lambda, 0, ub) with lambda
/// from 200 rounds of long-double bisection on the cap equation.
std::vector<double> reference_projection(const std::vector<double>& y,
                                         const std::vector<double>& ub, double cap) {
  using Real = long double;
  auto sum_at = [&](Real lambda) {
    Real s = 0.0L;
    for (std::size_t k = 0; k < y.size(); ++k) {
      s += std::clamp(static_cast<Real>(y[k]) - lambda, 0.0L, static_cast<Real>(ub[k]));
    }
    return s;
  };
  Real lambda = 0.0L;
  if (sum_at(0.0L) > static_cast<Real>(cap)) {
    Real lo = 0.0L;
    Real hi = 0.0L;
    for (double v : y) hi = std::max(hi, static_cast<Real>(v));
    for (int round = 0; round < 200; ++round) {
      const Real mid = 0.5L * (lo + hi);
      if (sum_at(mid) > static_cast<Real>(cap)) lo = mid;
      else hi = mid;
    }
    lambda = 0.5L * (lo + hi);
  }
  std::vector<double> x(y.size());
  for (std::size_t k = 0; k < y.size(); ++k) {
    x[k] = static_cast<double>(
        std::clamp(static_cast<Real>(y[k]) - lambda, 0.0L, static_cast<Real>(ub[k])));
  }
  return x;
}

TEST(CappedBox, ProjectionMatchesExactReferenceOnDegenerateGroups) {
  // Random groups mixing the degenerate cases the exact breakpoint sweep
  // must get right: dead entries (ub == 0), unbounded entries, tied y, groups
  // with every y <= 0, cap == 0, and a cap the clamped sum meets exactly.
  const double kInf = std::numeric_limits<double>::infinity();
  Rng rng(2024);
  int binding = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 40));
    std::vector<double> y(n);
    std::vector<double> ub(n);
    for (std::size_t k = 0; k < n; ++k) {
      y[k] = k > 0 && rng.bernoulli(0.2) ? y[static_cast<std::size_t>(rng.uniform_int(
                                               0, static_cast<std::int64_t>(k) - 1))]
                                         : rng.uniform(-2.0, 4.0);
      if (trial % 10 == 3) y[k] = -std::abs(y[k]);
      const double u = rng.uniform();
      ub[k] = u < 0.15 ? 0.0 : u < 0.3 ? kInf : rng.uniform(0.1, 3.0);
    }
    double clamped_sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) clamped_sum += std::clamp(y[k], 0.0, ub[k]);
    double cap = rng.uniform(0.0, 1.2) * clamped_sum;
    if (trial % 7 == 0) cap = 0.0;
    if (trial % 7 == 1) cap = clamped_sum;  // binds exactly

    CappedBoxPolytope contiguous(ub);
    std::vector<std::size_t> all(n);
    for (std::size_t k = 0; k < n; ++k) all[k] = k;
    contiguous.add_group(all, cap);
    const std::vector<double> x = contiguous.project(y);
    const std::vector<double> ref = reference_projection(y, ub, cap);

    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_GE(x[k], 0.0) << "trial " << trial << " k " << k;
      ASSERT_LE(x[k], ub[k]) << "trial " << trial << " k " << k;
      EXPECT_NEAR(x[k], ref[k], 1e-9) << "trial " << trial << " k " << k;
      total += x[k];
    }
    if (clamped_sum >= cap) {
      ++binding;
      EXPECT_LE(std::abs(total - cap), 1e-12 * (1.0 + cap)) << "trial " << trial;
    } else {
      EXPECT_LE(total, cap) << "trial " << trial;
    }

    // Dropping the entries that are 0 at every lambda (y <= 0 or ub == 0),
    // as a compact problem drops dead columns, changes no bit of the rest.
    std::vector<double> y_live;
    std::vector<double> ub_live;
    std::vector<std::size_t> live_at;
    for (std::size_t k = 0; k < n; ++k) {
      if (y[k] > 0.0 && ub[k] > 0.0) {
        y_live.push_back(y[k]);
        ub_live.push_back(ub[k]);
        live_at.push_back(k);
      }
    }
    if (!live_at.empty()) {
      CappedBoxPolytope compact(ub_live);
      std::vector<std::size_t> live(live_at.size());
      for (std::size_t k = 0; k < live.size(); ++k) live[k] = k;
      compact.add_group(live, cap);
      const std::vector<double> x_live = compact.project(y_live);
      for (std::size_t k = 0; k < live_at.size(); ++k) {
        ASSERT_EQ(x_live[k], x[live_at[k]]) << "trial " << trial << " k " << live_at[k];
      }
    }

    // The same values as an index-list group — interleaved with a second
    // group, so neither is contiguous — project bitwise identically.
    std::vector<double> ub2(2 * n, 1.0);
    std::vector<double> y2(2 * n, 0.5);
    std::vector<std::size_t> even(n);
    std::vector<std::size_t> odd(n);
    for (std::size_t k = 0; k < n; ++k) {
      even[k] = 2 * k;
      odd[k] = 2 * k + 1;
      ub2[2 * k] = ub[k];
      y2[2 * k] = y[k];
    }
    CappedBoxPolytope interleaved(ub2);
    interleaved.add_group(even, cap);
    interleaved.add_group(odd, 0.25 * static_cast<double>(n));
    const std::vector<double> x2 = interleaved.project(y2);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(x2[2 * k], x[k]) << "trial " << trial << " k " << k;
    }
  }
  EXPECT_GT(binding, 200);  // the sweep itself is what the trials exercise
}

/// Projects y the per-group way: box-only entries clamped, then each group
/// on its own, through a polytope holding just that group's values in the
/// group's index order (the gather an index-list group does anyway).
std::vector<double> project_group_by_group(
    const std::vector<double>& y, const std::vector<double>& ub,
    const std::vector<std::vector<std::size_t>>& groups, const std::vector<double>& caps) {
  std::vector<double> x = y;
  std::vector<bool> grouped(y.size(), false);
  for (const auto& g : groups) {
    for (std::size_t j : g) grouped[j] = true;
  }
  for (std::size_t j = 0; j < y.size(); ++j) {
    if (!grouped[j]) x[j] = std::clamp(y[j], 0.0, ub[j]);
  }
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const auto& g = groups[gi];
    std::vector<double> ys;
    std::vector<double> us;
    std::vector<std::size_t> local;
    for (std::size_t j : g) {
      local.push_back(ys.size());
      ys.push_back(y[j]);
      us.push_back(ub[j]);
    }
    CappedBoxPolytope single(us);
    single.add_group(local, caps[gi]);
    const std::vector<double> xs = single.project(ys);
    for (std::size_t k = 0; k < g.size(); ++k) x[g[k]] = xs[k];
  }
  return x;
}

void expect_bitwise(const std::vector<double>& got, const std::vector<double>& want,
                    int trial) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[j]), std::bit_cast<std::uint64_t>(want[j]))
        << "trial " << trial << " j " << j << ": " << got[j] << " vs " << want[j];
  }
}

TEST(CappedBox, InterleavedProjectionMatchesPerGroupBitwise) {
  // project_into sums runs of up to four contiguous equal-length groups in
  // one interleaved pass. Against groups projected one at a time: runs of
  // equal groups, unequal groups that break runs, ungrouped variables,
  // index-list groups, ub of 0 and +inf, and caps that bind exactly.
  const double kInf = std::numeric_limits<double>::infinity();
  Rng rng(0x5EED);
  int runs_of_four = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const auto num_groups = static_cast<std::size_t>(rng.uniform_int(4, 9));
    const auto equal_len = static_cast<std::size_t>(rng.uniform_int(0, 12));
    const int layout = trial % 4;  // 0 equal, 1 unequal, 2 + ungrouped, 3 + index lists
    std::vector<std::size_t> lens(num_groups);
    for (auto& len : lens) {
      len = layout == 0 || rng.bernoulli(0.5)
                ? equal_len
                : static_cast<std::size_t>(rng.uniform_int(0, 12));
    }
    // Lay the groups out in order; layouts 2-3 put ungrouped variables
    // between (and around) some of them.
    std::vector<std::vector<std::size_t>> groups(num_groups);
    std::size_t n = 0;
    for (std::size_t g = 0; g < num_groups; ++g) {
      if (layout >= 2 && rng.bernoulli(0.3)) n += static_cast<std::size_t>(rng.uniform_int(1, 3));
      for (std::size_t k = 0; k < lens[g]; ++k) groups[g].push_back(n++);
    }
    if (layout >= 2) n += static_cast<std::size_t>(rng.uniform_int(0, 3));
    if (layout == 3) {
      // Turn some groups into index lists: shuffled order, or two groups'
      // indices interleaved.
      for (std::size_t g = 0; g + 1 < num_groups; ++g) {
        if (!rng.bernoulli(0.4) || groups[g].size() < 2) continue;
        if (rng.bernoulli(0.5) || groups[g + 1].empty()) {
          std::swap(groups[g].front(), groups[g].back());
        } else {
          std::swap(groups[g].back(), groups[g + 1].front());
        }
      }
    }

    std::vector<double> ub(n);
    std::vector<double> y(n);
    for (std::size_t j = 0; j < n; ++j) {
      const double u = rng.uniform();
      ub[j] = u < 0.15 ? 0.0 : u < 0.3 ? kInf : rng.uniform(0.1, 3.0);
      const double v = rng.uniform();
      y[j] = v < 0.1 ? 0.0 : v < 0.2 ? ub[j] : rng.uniform(-2.0, 4.0);
      if (std::isinf(y[j])) y[j] = 5.0;
    }
    std::vector<double> caps(num_groups);
    for (std::size_t g = 0; g < num_groups; ++g) {
      double clamped_sum = 0.0;
      for (std::size_t j : groups[g]) clamped_sum += std::clamp(y[j], 0.0, ub[j]);
      const double c = rng.uniform();
      caps[g] = c < 0.15   ? 0.0
                : c < 0.3  ? clamped_sum  // binds exactly
                : c < 0.4  ? std::nextafter(clamped_sum, 0.0)
                : c < 0.45 ? kInf
                           : rng.uniform(0.0, 1.2) * clamped_sum;
    }

    CappedBoxPolytope p(ub);
    for (std::size_t g = 0; g < num_groups; ++g) p.add_group(groups[g], caps[g]);
    std::vector<double> x;
    p.project_into(y, x);
    expect_bitwise(x, project_group_by_group(y, ub, groups, caps), trial);
    if (layout == 0 && num_groups >= 4) ++runs_of_four;
  }
  EXPECT_GT(runs_of_four, 100);
}

TEST(CappedBox, InterleavedProjectionMatchesPerGroupAfterRebuild) {
  // The per-slot problem's shape: rebuild_contiguous into N groups of J,
  // every bound and cap rewritten in place, N = 1..9 so every run tail
  // (1-3 groups after the runs of four) occurs.
  Rng rng(77);
  CappedBoxPolytope p({});
  for (int trial = 0; trial < 200; ++trial) {
    const auto N = static_cast<std::size_t>(1 + trial % 9);
    const auto J = static_cast<std::size_t>(rng.uniform_int(1, 20));
    p.rebuild_contiguous(N, J);
    std::vector<double> ub(N * J);
    std::vector<double> y(N * J);
    double* bounds = p.mutable_upper_bounds();
    for (std::size_t j = 0; j < N * J; ++j) {
      ub[j] = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 3.0);
      bounds[j] = ub[j];
      y[j] = rng.uniform(-1.0, 3.0);
    }
    std::vector<std::vector<std::size_t>> groups(N);
    std::vector<double> caps(N);
    for (std::size_t g = 0; g < N; ++g) {
      for (std::size_t k = 0; k < J; ++k) groups[g].push_back(g * J + k);
      caps[g] = rng.uniform(0.0, static_cast<double>(J));
      p.set_group_cap(g, caps[g]);
    }
    std::vector<double> x;
    p.project_into(y, x);
    expect_bitwise(x, project_group_by_group(y, ub, groups, caps), trial);
  }
}

TEST(CappedBox, GroupedCountKeepsBoxOnlyVariablesClamped) {
  // project_into skips the box-only scan only when every variable is
  // grouped; the count behind that decision must follow add_group and
  // rebuild_contiguous.
  const std::vector<double> y = {5.0, -1.0, 5.0, -1.0, 5.0, -1.0};
  CappedBoxPolytope p(std::vector<double>(6, 2.0));
  p.add_group({0, 1}, 10.0);
  EXPECT_EQ(p.project(y), (std::vector<double>{2.0, 0.0, 2.0, 0.0, 2.0, 0.0}));
  p.add_group({2, 3, 4}, 1.0);
  EXPECT_EQ(p.project(y), (std::vector<double>{2.0, 0.0, 0.5, 0.0, 0.5, 0.0}));
  // A rejected add_group does not count variable 5: it stays box-only.
  EXPECT_THROW(p.add_group({0, 5}, 1.0), ContractViolation);
  EXPECT_EQ(p.project(y), (std::vector<double>{2.0, 0.0, 0.5, 0.0, 0.5, 0.0}));
  EXPECT_EQ(p.minimize_linear({1.0, 1.0, 1.0, 1.0, 1.0, -1.0}),
            (std::vector<double>{0.0, 0.0, 0.0, 0.0, 0.0, 2.0}));
  // rebuild_contiguous groups every variable; growing back from a smaller
  // shape keeps that true.
  p.rebuild_contiguous(2, 3);
  for (std::size_t j = 0; j < 6; ++j) p.mutable_upper_bounds()[j] = 2.0;
  p.set_group_cap(0, 1.0);
  p.set_group_cap(1, 10.0);
  EXPECT_EQ(p.project(y), (std::vector<double>{0.5, 0.0, 0.5, 0.0, 2.0, 0.0}));
  EXPECT_THROW(p.add_group({5}, 1.0), ContractViolation);
  p.rebuild_contiguous(1, 2);
  p.rebuild_contiguous(3, 2);
  for (std::size_t j = 0; j < 6; ++j) p.mutable_upper_bounds()[j] = 2.0;
  for (std::size_t g = 0; g < 3; ++g) p.set_group_cap(g, 10.0);
  EXPECT_EQ(p.project(y), (std::vector<double>{2.0, 0.0, 2.0, 0.0, 2.0, 0.0}));
}

TEST(CappedBox, DimensionMismatchIsContractViolation) {
  CappedBoxPolytope p({1.0, 1.0});
  EXPECT_THROW(p.project({1.0}), ContractViolation);
  EXPECT_THROW(p.minimize_linear({1.0, 2.0, 3.0}), ContractViolation);
  EXPECT_THROW(p.contains({1.0}), ContractViolation);
  EXPECT_THROW(p.add_group({5}, 1.0), ContractViolation);
}

}  // namespace
}  // namespace grefar

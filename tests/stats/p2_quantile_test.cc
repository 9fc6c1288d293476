#include "stats/p2_quantile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace grefar {
namespace {

double exact_quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  double idx = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(idx);
  auto hi = std::min(lo + 1, values.size() - 1);
  double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

TEST(P2Quantile, RejectsBadQuantile) {
  EXPECT_THROW(P2Quantile(0.0), ContractViolation);
  EXPECT_THROW(P2Quantile(1.0), ContractViolation);
  EXPECT_THROW(P2Quantile(-0.5), ContractViolation);
}

TEST(P2Quantile, EmptyIsNaN) {
  // "No samples" must be distinguishable from a genuine zero-delay
  // percentile; JSON emitters turn the NaN into null.
  P2Quantile p(0.5);
  EXPECT_TRUE(std::isnan(p.value()));
  EXPECT_EQ(p.count(), 0);
}

TEST(P2Quantile, ExactForSmallSamples) {
  P2Quantile p(0.5);
  p.add(3.0);
  EXPECT_DOUBLE_EQ(p.value(), 3.0);
  p.add(1.0);
  EXPECT_DOUBLE_EQ(p.value(), 2.0);  // median of {1,3}
  p.add(5.0);
  EXPECT_DOUBLE_EQ(p.value(), 3.0);  // median of {1,3,5}
}

TEST(P2Quantile, MedianOfUniform) {
  P2Quantile p(0.5);
  Rng rng(1);
  for (int i = 0; i < 50000; ++i) p.add(rng.uniform());
  EXPECT_NEAR(p.value(), 0.5, 0.02);
}

TEST(P2Quantile, P99OfUniform) {
  P2Quantile p(0.99);
  Rng rng(2);
  for (int i = 0; i < 50000; ++i) p.add(rng.uniform());
  EXPECT_NEAR(p.value(), 0.99, 0.02);
}

TEST(P2Quantile, P90OfNormal) {
  P2Quantile p(0.9);
  Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) {
    double x = rng.normal();
    p.add(x);
    samples.push_back(x);
  }
  EXPECT_NEAR(p.value(), exact_quantile(samples, 0.9), 0.05);
}

TEST(P2Quantile, HandlesSortedInput) {
  P2Quantile p(0.5);
  for (int i = 0; i < 10001; ++i) p.add(static_cast<double>(i));
  EXPECT_NEAR(p.value(), 5000.0, 100.0);
}

TEST(P2Quantile, HandlesReverseSortedInput) {
  P2Quantile p(0.5);
  for (int i = 10000; i >= 0; --i) p.add(static_cast<double>(i));
  EXPECT_NEAR(p.value(), 5000.0, 100.0);
}

TEST(P2Quantile, ConstantStream) {
  P2Quantile p(0.75);
  for (int i = 0; i < 1000; ++i) p.add(4.2);
  EXPECT_NEAR(p.value(), 4.2, 1e-9);
}

TEST(P2Quantile, CountTracksSamples) {
  P2Quantile p(0.5);
  for (int i = 0; i < 17; ++i) p.add(static_cast<double>(i));
  EXPECT_EQ(p.count(), 17);
}

/// Exponential sample with rate `lambda` (mean 1/lambda) by inversion.
double exponential(Rng& rng, double lambda) {
  return -std::log(1.0 - rng.uniform()) / lambda;
}

// Parameterized sweep: accuracy across quantiles on exponential data.
class P2SweepTest : public ::testing::TestWithParam<double> {};

TEST_P(P2SweepTest, TracksExactQuantileOnExponential) {
  const double q = GetParam();
  P2Quantile p(q);
  Rng rng(static_cast<std::uint64_t>(q * 1e6));
  std::vector<double> samples;
  for (int i = 0; i < 40000; ++i) {
    double x = exponential(rng, 1.0);
    p.add(x);
    samples.push_back(x);
  }
  double exact = exact_quantile(samples, q);
  EXPECT_NEAR(p.value(), exact, std::max(0.05, 0.1 * exact));
}

INSTANTIATE_TEST_SUITE_P(Quantiles, P2SweepTest,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99));

}  // namespace
}  // namespace grefar

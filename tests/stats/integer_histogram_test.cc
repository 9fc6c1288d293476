#include "stats/integer_histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/metrics.h"
#include "stats/p2_quantile.h"
#include "util/check.h"
#include "util/rng.h"

namespace grefar {
namespace {

constexpr double kQuantiles[] = {0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0};

/// Type-7 quantile of the sorted samples: the reference the histogram must
/// match bit for bit.
double sorted_quantile(std::vector<std::int64_t> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const double idx = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, samples.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return static_cast<double>(samples[lo]) * (1.0 - frac) +
         static_cast<double>(samples[hi]) * frac;
}

void expect_bitwise(double got, double want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
      << got << " vs " << want;
}

void expect_same(const IntegerHistogram& a, const IntegerHistogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  for (double q : kQuantiles) {
    if (a.count() == 0) {
      EXPECT_TRUE(std::isnan(a.quantile(q)) && std::isnan(b.quantile(q)));
    } else {
      expect_bitwise(a.quantile(q), b.quantile(q));
    }
  }
}

TEST(IntegerHistogram, MatchesSortedSampleQuantilesOnRandomSamples) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = rng.uniform_int(1, 400);
    const auto top = rng.uniform_int(0, trial % 2 == 0 ? 12 : 300);
    IntegerHistogram h;
    std::vector<std::int64_t> samples;
    std::int64_t sum = 0;
    for (std::int64_t k = 0; k < n; ++k) {
      const std::int64_t x = rng.uniform_int(0, top);
      h.add(x);
      samples.push_back(x);
      sum += x;
    }
    ASSERT_EQ(h.count(), n);
    EXPECT_EQ(h.sum(), sum);
    EXPECT_EQ(h.min(), *std::min_element(samples.begin(), samples.end()));
    EXPECT_EQ(h.max(), *std::max_element(samples.begin(), samples.end()));
    for (double q : kQuantiles) {
      expect_bitwise(h.quantile(q), sorted_quantile(samples, q));
    }
  }
}

TEST(IntegerHistogram, EqualsP2SmallSamplePathUpToFourSamples) {
  // Below five samples P2Quantile sorts what it saw and interpolates, the
  // same type-7 rule: the delay percentiles of short runs did not move.
  const std::vector<std::int64_t> stream = {5, 1, 9, 3};
  for (double q : {0.5, 0.95, 0.99}) {
    IntegerHistogram h;
    P2Quantile p(q);
    for (std::int64_t x : stream) {
      h.add(x);
      p.add(static_cast<double>(x));
      expect_bitwise(h.quantile(q), p.value());
    }
  }
}

TEST(IntegerHistogram, EmptyHasNaNQuantilesAndNullJson) {
  IntegerHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  for (double q : kQuantiles) EXPECT_TRUE(std::isnan(h.quantile(q)));

  SimMetrics m(1, 1);
  EXPECT_TRUE(std::isnan(m.delay_p99()));
  const JsonValue s = m.summary_json();
  EXPECT_TRUE(s.find("delay_p50")->is_null());
  EXPECT_TRUE(s.find("delay_p95")->is_null());
  EXPECT_TRUE(s.find("delay_p99")->is_null());
}

TEST(IntegerHistogram, ResetThenReuseEqualsFresh) {
  IntegerHistogram reused;
  for (std::int64_t x : {40, 2, 2, 17, 90, 3}) reused.add(x);
  reused.reset();
  expect_same(reused, IntegerHistogram{});
  IntegerHistogram fresh;
  for (std::int64_t x : {4, 1, 1, 6}) {
    reused.add(x);
    fresh.add(x);
  }
  expect_same(reused, fresh);
}

TEST(IntegerHistogram, OneVeryLargeDelay) {
  constexpr std::int64_t kLarge = 1'000'000;
  IntegerHistogram h;
  std::vector<std::int64_t> samples = {1, 2, 2, 3};
  for (std::int64_t x : samples) h.add(x);
  h.add(kLarge);
  samples.push_back(kLarge);
  EXPECT_EQ(h.max(), kLarge);
  EXPECT_EQ(h.sum(), 8 + kLarge);
  for (double q : kQuantiles) {
    expect_bitwise(h.quantile(q), sorted_quantile(samples, q));
  }
  h.add(kLarge - 1);  // inside the grown range: the plain increment path
  samples.push_back(kLarge - 1);
  EXPECT_EQ(h.count(), 6);
  for (double q : kQuantiles) {
    expect_bitwise(h.quantile(q), sorted_quantile(samples, q));
  }
}

TEST(IntegerHistogram, RejectsNegativeAndOutOfRangeSamples) {
  IntegerHistogram h;
  h.add(4);
  EXPECT_THROW(h.add(-1), ContractViolation);
  EXPECT_THROW(h.add(IntegerHistogram::kMaxValue + 1), ContractViolation);
  EXPECT_THROW(h.quantile(-0.1), ContractViolation);
  EXPECT_THROW(h.quantile(1.5), ContractViolation);
  // A rejected sample leaves no trace.
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.sum(), 4);
  EXPECT_EQ(h.min(), 4);
}

}  // namespace
}  // namespace grefar

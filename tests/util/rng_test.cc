#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/check.h"

namespace grefar {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(2);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform(-2.5, 7.25);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.25);
  }
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(1.0, 0.0), ContractViolation);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(4);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntIsApproximatelyUniform) {
  Rng rng(6);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(0, 9)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(Rng, NormalMoments) {
  Rng rng(7);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParams) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, NormalRejectsNegativeSd) {
  Rng rng(8);
  EXPECT_THROW(rng.normal(0.0, -1.0), ContractViolation);
}

TEST(Rng, PoissonSmallLambdaMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(Rng, PoissonLargeLambdaMeanAndVariance) {
  Rng rng(12);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    auto x = static_cast<double>(rng.poisson(100.0));
    sum += x;
    sum2 += x * x;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 100.0, 1.0);
  EXPECT_NEAR(var, 100.0, 5.0);
}

TEST(Rng, PoissonZeroLambda) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, PoissonNeverNegative) {
  Rng rng(14);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.poisson(70.0), 0);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(17);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(18);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic) {
  Rng parent1(21), parent2(21);
  Rng childA1 = parent1.fork(0);
  Rng childA2 = parent2.fork(0);
  Rng childB = parent1.fork(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(childA1.next_u64(), childA2.next_u64());
  Rng childA3 = parent2.fork(0);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (childA3.next_u64() == childB.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

// Property sweep: uniform_int stays within bounds for many ranges.
class RngRangeTest : public ::testing::TestWithParam<std::pair<std::int64_t, std::int64_t>> {};

TEST_P(RngRangeTest, StaysInBounds) {
  auto [lo, hi] = GetParam();
  Rng rng(static_cast<std::uint64_t>(lo * 31 + hi));
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.uniform_int(lo, hi);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranges, RngRangeTest,
                         ::testing::Values(std::pair<std::int64_t, std::int64_t>{0, 1},
                                           std::pair<std::int64_t, std::int64_t>{-5, 5},
                                           std::pair<std::int64_t, std::int64_t>{100, 1000},
                                           std::pair<std::int64_t, std::int64_t>{-1000000, -999990},
                                           std::pair<std::int64_t, std::int64_t>{0, 0}));

}  // namespace
}  // namespace grefar

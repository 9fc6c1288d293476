#include "stats/time_series.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace grefar {
namespace {

TimeSeries make_series(std::vector<double> values, std::string name = "s") {
  TimeSeries ts(std::move(name));
  for (double v : values) ts.add(v);
  return ts;
}

TEST(TimeSeries, EmptyDefaults) {
  TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(ts.size(), 0u);
  EXPECT_DOUBLE_EQ(ts.mean(), 0.0);
  EXPECT_DOUBLE_EQ(ts.sum(), 0.0);
}

TEST(TimeSeries, AddAndAccess) {
  auto ts = make_series({1.0, 2.0, 3.0});
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_DOUBLE_EQ(ts.at(1), 2.0);
  EXPECT_THROW(ts.at(3), ContractViolation);
}

TEST(TimeSeries, MeanAndSum) {
  auto ts = make_series({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(ts.mean(), 2.5);
  EXPECT_DOUBLE_EQ(ts.sum(), 10.0);
}

TEST(TimeSeries, PrefixAverageMatchesPaperDefinition) {
  // "summing up all the values up to time t and dividing by t"
  auto avg = make_series({2.0, 4.0, 6.0}).prefix_average();
  ASSERT_EQ(avg.size(), 3u);
  EXPECT_DOUBLE_EQ(avg.at(0), 2.0);
  EXPECT_DOUBLE_EQ(avg.at(1), 3.0);
  EXPECT_DOUBLE_EQ(avg.at(2), 4.0);
  EXPECT_EQ(avg.name(), "s_avg");
}

TEST(TimeSeries, PrefixAverageOfEmpty) {
  EXPECT_TRUE(TimeSeries("x").prefix_average().empty());
}

TEST(TimeSeries, PrefixRatioComputesRunningAverageDelay) {
  // delay sums: 2, 0, 4; completions: 1, 0, 2 => running delays 2, 2, 2.
  auto num = make_series({2.0, 0.0, 4.0}, "delay");
  auto den = make_series({1.0, 0.0, 2.0}, "jobs");
  auto ratio = TimeSeries::prefix_ratio(num, den, "avg_delay");
  ASSERT_EQ(ratio.size(), 3u);
  EXPECT_DOUBLE_EQ(ratio.at(0), 2.0);
  EXPECT_DOUBLE_EQ(ratio.at(1), 2.0);
  EXPECT_DOUBLE_EQ(ratio.at(2), 2.0);
}

TEST(TimeSeries, PrefixRatioZeroDenominatorIsZero) {
  auto num = make_series({5.0, 1.0}, "n");
  auto den = make_series({0.0, 1.0}, "d");
  auto ratio = TimeSeries::prefix_ratio(num, den, "r");
  EXPECT_DOUBLE_EQ(ratio.at(0), 0.0);
  EXPECT_DOUBLE_EQ(ratio.at(1), 6.0);
}

TEST(TimeSeries, PrefixRatioRequiresEqualLengths) {
  auto num = make_series({1.0}, "n");
  auto den = make_series({1.0, 2.0}, "d");
  EXPECT_THROW(TimeSeries::prefix_ratio(num, den, "r"), ContractViolation);
}

TEST(Correlation, PerfectPositiveAndNegative) {
  auto a = make_series({1.0, 2.0, 3.0, 4.0});
  auto b = make_series({2.0, 4.0, 6.0, 8.0});
  auto c = make_series({4.0, 3.0, 2.0, 1.0});
  EXPECT_NEAR(correlation(a, b), 1.0, 1e-12);
  EXPECT_NEAR(correlation(a, c), -1.0, 1e-12);
  EXPECT_NEAR(correlation(a, a), 1.0, 1e-12);
}

TEST(Correlation, ConstantSeriesGivesZero) {
  auto a = make_series({1.0, 2.0, 3.0});
  auto flat = make_series({5.0, 5.0, 5.0});
  EXPECT_DOUBLE_EQ(correlation(a, flat), 0.0);
  EXPECT_DOUBLE_EQ(correlation(flat, a), 0.0);
}

TEST(Correlation, EmptyAndMismatched) {
  TimeSeries empty("e");
  EXPECT_DOUBLE_EQ(correlation(empty, empty), 0.0);
  auto a = make_series({1.0, 2.0});
  auto b = make_series({1.0});
  EXPECT_THROW(correlation(a, b), ContractViolation);
}

TEST(Correlation, UncorrelatedIsNearZero) {
  // Alternating vs linear: correlation ~0 for even-length series.
  TimeSeries alt("alt"), lin("lin");
  for (int i = 0; i < 100; ++i) {
    alt.add(i % 2 == 0 ? 1.0 : -1.0);
    lin.add(static_cast<double>(i));
  }
  EXPECT_NEAR(correlation(alt, lin), 0.0, 0.05);
}

TEST(Correlation, InvariantToAffineTransforms) {
  auto a = make_series({3.0, 1.0, 4.0, 1.0, 5.0});
  auto b = make_series({2.0, 7.0, 1.0, 8.0, 2.0});
  TimeSeries a_scaled("s");
  for (double v : a.values()) a_scaled.add(10.0 * v - 3.0);
  EXPECT_NEAR(correlation(a, b), correlation(a_scaled, b), 1e-12);
}

TEST(TimeSeriesCsv, HeaderAndRows) {
  auto a = make_series({1.0, 2.0}, "alpha");
  auto b = make_series({3.0, 4.0}, "beta");
  auto csv = time_series_to_csv({&a, &b});
  EXPECT_NE(csv.find("slot,alpha,beta"), std::string::npos);
  EXPECT_NE(csv.find("0,1.000000,3.000000"), std::string::npos);
  EXPECT_NE(csv.find("1,2.000000,4.000000"), std::string::npos);
}

TEST(TimeSeriesCsv, UnequalLengthsPadWithEmpty) {
  auto a = make_series({1.0, 2.0, 3.0}, "a");
  auto b = make_series({9.0}, "b");
  auto csv = time_series_to_csv({&a, &b});
  EXPECT_NE(csv.find("2,3.000000,"), std::string::npos);
}

}  // namespace
}  // namespace grefar

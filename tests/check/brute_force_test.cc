#include "check/brute_force.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.h"

namespace grefar {
namespace {

TEST(BruteForce, FindsBoxMinimum) {
  CappedBoxPolytope p({2.0, 2.0});
  auto result = minimize_brute_force(
      [](const std::vector<double>& x) {
        return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] - 2.0) * (x[1] - 2.0);
      },
      p, 21);
  EXPECT_NEAR(result.x[0], 1.0, 0.11);
  EXPECT_NEAR(result.x[1], 2.0, 1e-9);
}

TEST(BruteForce, RespectsGroupCap) {
  CappedBoxPolytope p({2.0, 2.0});
  p.add_group({0, 1}, 1.0);
  auto result = minimize_brute_force(
      [](const std::vector<double>& x) { return -(x[0] + x[1]); }, p, 21);
  EXPECT_NEAR(result.x[0] + result.x[1], 1.0, 1e-9);
}

TEST(BruteForce, CountsEvaluations) {
  CappedBoxPolytope p({1.0});
  auto result = minimize_brute_force(
      [](const std::vector<double>& x) { return x[0]; }, p, 11);
  EXPECT_EQ(result.evaluated, 11u);
  EXPECT_NEAR(result.x[0], 0.0, 1e-12);
}

TEST(BruteForce, RejectsBadInputs) {
  CappedBoxPolytope p({1.0});
  auto f = [](const std::vector<double>& x) { return x[0]; };
  EXPECT_THROW(minimize_brute_force(f, p, 1), ContractViolation);
  CappedBoxPolytope big(std::vector<double>(9, 1.0));
  EXPECT_THROW(minimize_brute_force(f, big, 3), ContractViolation);
}

TEST(BruteForce, RejectsInfiniteBounds) {
  CappedBoxPolytope p({std::numeric_limits<double>::infinity()});
  auto f = [](const std::vector<double>& x) { return x[0]; };
  EXPECT_THROW(minimize_brute_force(f, p, 5), ContractViolation);
}

}  // namespace
}  // namespace grefar

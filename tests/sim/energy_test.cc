#include "sim/energy.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace grefar {
namespace {

std::vector<ServerType> table_one_types() {
  return {{"gen-a", 1.00, 1.00}, {"gen-b", 0.75, 0.60}, {"gen-c", 1.15, 1.20}};
}

TEST(EnergyCurve, CapacitySumsAvailableServers) {
  EnergyCostCurve curve(table_one_types(), {10, 20, 0});
  EXPECT_DOUBLE_EQ(curve.capacity(), 10 * 1.0 + 20 * 0.75);
}

TEST(EnergyCurve, ZeroWorkZeroEnergy) {
  EnergyCostCurve curve(table_one_types(), {10, 10, 10});
  EXPECT_DOUBLE_EQ(curve.energy_for_work(0.0), 0.0);
}

TEST(EnergyCurve, FillsCheapestServersFirst) {
  // Energy-per-work: gen-a 1.0, gen-b 0.8, gen-c ~1.043 — gen-b first.
  EnergyCostCurve curve(table_one_types(), {10, 10, 10});
  // 5 work fits entirely on gen-b (capacity 7.5): energy = 5 * 0.8 = 4.
  EXPECT_NEAR(curve.energy_for_work(5.0), 4.0, 1e-9);
  // 10 work: 7.5 on gen-b + 2.5 on gen-a = 6 + 2.5 = 8.5.
  EXPECT_NEAR(curve.energy_for_work(10.0), 8.5, 1e-9);
}

TEST(EnergyCurve, FullLoadUsesEverything) {
  EnergyCostCurve curve(table_one_types(), {10, 10, 10});
  double cap = curve.capacity();
  // 7.5*0.8 + 10*1.0 + 11.5*(1.2/1.15) = 6 + 10 + 12 = 28.
  EXPECT_NEAR(curve.energy_for_work(cap), 28.0, 1e-9);
  // Beyond capacity clamps.
  EXPECT_NEAR(curve.energy_for_work(cap + 100.0), 28.0, 1e-9);
}

TEST(EnergyCurve, IsConvexAndIncreasing) {
  EnergyCostCurve curve(table_one_types(), {5, 5, 5});
  double prev_e = 0.0;
  double prev_slope = 0.0;
  for (double w = 1.0; w <= curve.capacity(); w += 1.0) {
    double e = curve.energy_for_work(w);
    double slope = e - prev_e;
    EXPECT_GE(e, prev_e);              // increasing
    EXPECT_GE(slope + 1e-12, prev_slope);  // convex
    prev_e = e;
    prev_slope = slope;
  }
}

TEST(EnergyCurve, MarginalMatchesSegmentSlopes) {
  EnergyCostCurve curve(table_one_types(), {10, 10, 10});
  EXPECT_NEAR(curve.smoothed_marginal(0.0, 0.0), 0.8, 1e-12);    // gen-b segment
  EXPECT_NEAR(curve.smoothed_marginal(7.4, 0.0), 0.8, 1e-12);
  EXPECT_NEAR(curve.smoothed_marginal(7.6, 0.0), 1.0, 1e-12);    // gen-a segment
  EXPECT_NEAR(curve.smoothed_marginal(18.0, 0.0), 1.2 / 1.15, 1e-12);  // gen-c
  EXPECT_NEAR(curve.smoothed_marginal(1000.0, 0.0), 1.2 / 1.15, 1e-12);  // clamped
}

TEST(EnergyCurve, UnavailableTypesAreSkipped) {
  EnergyCostCurve curve(table_one_types(), {0, 10, 0});
  EXPECT_DOUBLE_EQ(curve.capacity(), 7.5);
  ASSERT_EQ(curve.segments().size(), 1u);
  EXPECT_EQ(curve.segments()[0].type, 1u);
  EXPECT_NEAR(curve.energy_for_work(3.0), 3.0 * 0.8, 1e-9);
}

TEST(EnergyCurve, EmptyFleetHasZeroCapacity) {
  EnergyCostCurve curve(table_one_types(), {0, 0, 0});
  EXPECT_DOUBLE_EQ(curve.capacity(), 0.0);
  EXPECT_DOUBLE_EQ(curve.energy_for_work(0.0), 0.0);
  EXPECT_DOUBLE_EQ(curve.smoothed_marginal(1.0, 0.0), 0.0);
}

TEST(EnergyCurve, RejectsBadInputs) {
  EXPECT_THROW(EnergyCostCurve({}, {}), ContractViolation);
  EXPECT_THROW(EnergyCostCurve(table_one_types(), {1, 2}), ContractViolation);
  EXPECT_THROW(EnergyCostCurve(table_one_types(), {-1, 0, 0}), ContractViolation);
  EnergyCostCurve curve(table_one_types(), {1, 1, 1});
  EXPECT_THROW(curve.energy_for_work(-1.0), ContractViolation);
  EXPECT_THROW(curve.smoothed_marginal(-1.0, 0.0), ContractViolation);
}

TEST(EnergyCurve, SegmentsSortedByEnergyPerWork) {
  EnergyCostCurve curve(table_one_types(), {10, 10, 10});
  const auto& segs = curve.segments();
  ASSERT_EQ(segs.size(), 3u);
  for (std::size_t s = 1; s < segs.size(); ++s) {
    EXPECT_LE(segs[s - 1].energy_per_work, segs[s].energy_per_work);
  }
  EXPECT_EQ(segs[0].type, 1u);  // gen-b is cheapest
}

TEST(EnergyCurve, TableOneCostPerUnitWork) {
  // Table I's "Avg. Energy Cost per Unit Work" column: price * p / s.
  const double prices[3] = {0.392, 0.433, 0.548};
  const double expected[3] = {0.392, 0.346, 0.572};
  auto types = table_one_types();
  for (int dc = 0; dc < 3; ++dc) {
    std::vector<std::int64_t> avail(3, 0);
    avail[dc] = 100;
    EnergyCostCurve curve(types, avail);
    double cost_per_work = prices[dc] * curve.smoothed_marginal(0.0, 0.0);
    EXPECT_NEAR(cost_per_work, expected[dc], 5e-4) << "DC " << dc + 1;
  }
}

}  // namespace
}  // namespace grefar

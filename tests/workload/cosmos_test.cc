#include "workload/cosmos_like.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace grefar {
namespace {

CosmosTypeParams default_params() {
  CosmosTypeParams p;
  p.base_rate = 5.0;
  p.a_max = 60;
  return p;
}

TEST(CosmosLike, DeterministicPerSeed) {
  CosmosLikeArrivals a({default_params()}, 3);
  CosmosLikeArrivals b({default_params()}, 3);
  for (std::int64_t t = 0; t < 500; ++t) EXPECT_EQ(a.arrivals(t), b.arrivals(t));
}

TEST(CosmosLike, BoundednessHolds) {
  auto p = default_params();
  p.a_max = 8;
  p.base_rate = 50.0;
  CosmosLikeArrivals a({p}, 5);
  for (std::int64_t t = 0; t < 2000; ++t) {
    EXPECT_GE(a.arrivals(t)[0], 0);
    EXPECT_LE(a.arrivals(t)[0], 8);
  }
}

TEST(CosmosLike, DiurnalShapeRaisesDaytimeRates) {
  auto p = default_params();
  p.diurnal_amplitude = 0.8;
  p.peak_hour = 14.0;
  CosmosLikeArrivals a({p}, 7);
  double day = 0.0, night = 0.0;
  int days = 0;
  for (std::int64_t d = 0; d < 50; ++d) {
    std::int64_t day_slot = d * 24 + 14;
    std::int64_t night_slot = d * 24 + 2;
    day += static_cast<double>(a.arrivals(day_slot)[0]);
    night += static_cast<double>(a.arrivals(night_slot)[0]);
    ++days;
  }
  EXPECT_GT(day / days, 1.5 * night / days);
}

TEST(CosmosLike, WeekendsAreQuieter) {
  auto p = default_params();
  p.weekend_multiplier = 0.3;
  p.diurnal_amplitude = 0.0;  // isolate the weekend factor
  CosmosLikeArrivals a({p}, 9);
  double weekday = 0.0, weekend = 0.0;
  int wd = 0, we = 0;
  for (std::int64_t t = 0; t < 24 * 7 * 30; ++t) {
    std::int64_t day = (t / 24) % 7;
    if (day >= 5) {
      weekend += static_cast<double>(a.arrivals(t)[0]);
      ++we;
    } else {
      weekday += static_cast<double>(a.arrivals(t)[0]);
      ++wd;
    }
  }
  EXPECT_GT(weekday / wd, 2.0 * weekend / we);
}

TEST(CosmosLike, BurstsProduceOverdispersion) {
  // With bursting, variance of counts should exceed the Poisson variance
  // (variance == mean); compare the index of dispersion.
  auto p = default_params();
  p.diurnal_amplitude = 0.0;
  p.weekend_multiplier = 1.0;
  p.burst_multiplier = 6.0;
  p.idle_multiplier = 0.1;
  p.a_max = 1000;
  CosmosLikeArrivals a({p}, 11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (std::int64_t t = 0; t < n; ++t) {
    auto x = static_cast<double>(a.arrivals(t)[0]);
    sum += x;
    sum2 += x * x;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_GT(var / mean, 2.0);
}

TEST(CosmosLike, MultipleTypesAreIndependentStreams) {
  CosmosLikeArrivals a({default_params(), default_params()}, 13);
  EXPECT_EQ(a.num_job_types(), 2u);
  int same = 0;
  for (std::int64_t t = 0; t < 200; ++t) {
    auto row = a.arrivals(t);
    if (row[0] == row[1]) ++same;
  }
  EXPECT_LT(same, 150);  // occasional coincidences allowed
}

TEST(CosmosLike, MaxArrivalsExposesBound) {
  auto p = default_params();
  p.a_max = 42;
  CosmosLikeArrivals a({p}, 15);
  EXPECT_EQ(a.max_arrivals(0), 42);
  EXPECT_THROW(a.max_arrivals(1), ContractViolation);
}

TEST(CosmosLike, RejectsInvalidParams) {
  auto bad = default_params();
  bad.burst_on_prob = 1.5;
  EXPECT_THROW(CosmosLikeArrivals({bad}, 1), ContractViolation);
  bad = default_params();
  bad.a_max = -1;
  EXPECT_THROW(CosmosLikeArrivals({bad}, 1), ContractViolation);
  EXPECT_THROW(CosmosLikeArrivals({}, 1), ContractViolation);
}

}  // namespace
}  // namespace grefar

#include "workload/cosmos_like.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/check.h"

namespace grefar {

CosmosLikeArrivals::CosmosLikeArrivals(std::vector<CosmosTypeParams> params,
                                       std::uint64_t seed)
    : params_(std::move(params)),
      seed_(seed),
      burst_active_(params_.size(), false),
      rng_(seed) {
  GREFAR_CHECK(!params_.empty());
  for (const auto& p : params_) {
    GREFAR_CHECK(p.base_rate >= 0.0);
    GREFAR_CHECK(p.diurnal_amplitude >= 0.0 && p.diurnal_amplitude <= 1.0);
    GREFAR_CHECK(p.burst_on_prob >= 0.0 && p.burst_on_prob <= 1.0);
    GREFAR_CHECK(p.burst_off_prob >= 0.0 && p.burst_off_prob <= 1.0);
    GREFAR_CHECK(p.burst_multiplier >= 0.0);
    GREFAR_CHECK(p.idle_multiplier >= 0.0);
    GREFAR_CHECK(p.weekend_multiplier >= 0.0);
    GREFAR_CHECK(p.a_max >= 0);
  }
}

void CosmosLikeArrivals::extend(std::int64_t t) const {
  while (static_cast<std::int64_t>(count_cache_.size()) <= t) {
    std::int64_t slot = static_cast<std::int64_t>(count_cache_.size());
    double hour = static_cast<double>(slot % 24);
    std::int64_t day = (slot / 24) % 7;
    bool weekend = day >= 5;

    std::vector<std::int64_t> counts(params_.size());
    for (std::size_t j = 0; j < params_.size(); ++j) {
      const auto& p = params_[j];
      // Markov burst chain.
      if (burst_active_[j]) {
        if (rng_.bernoulli(p.burst_off_prob)) burst_active_[j] = false;
      } else {
        if (rng_.bernoulli(p.burst_on_prob)) burst_active_[j] = true;
      }
      double diurnal =
          1.0 + p.diurnal_amplitude *
                    std::cos(2.0 * std::numbers::pi * (hour - p.peak_hour) / 24.0);
      double burst = burst_active_[j] ? p.burst_multiplier : p.idle_multiplier;
      double wknd = weekend ? p.weekend_multiplier : 1.0;
      double rate = p.base_rate * diurnal * burst * wknd;
      counts[j] = std::min<std::int64_t>(p.a_max, rng_.poisson(rate));
    }
    count_cache_.push_back(std::move(counts));
  }
}

std::vector<std::int64_t> CosmosLikeArrivals::arrivals(std::int64_t t) const {
  GREFAR_CHECK(t >= 0);
  extend(t);
  return count_cache_[static_cast<std::size_t>(t)];
}

void CosmosLikeArrivals::arrivals_into(std::int64_t t,
                                       std::vector<std::int64_t>& out) const {
  GREFAR_CHECK(t >= 0);
  extend(t);
  const auto& row = count_cache_[static_cast<std::size_t>(t)];
  out.assign(row.begin(), row.end());
}

std::int64_t CosmosLikeArrivals::max_arrivals(JobTypeId j) const {
  GREFAR_CHECK(j < params_.size());
  return params_[j].a_max;
}

}  // namespace grefar

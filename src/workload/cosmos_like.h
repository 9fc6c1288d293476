// CosmosLikeArrivals: the stand-in for the Microsoft Cosmos batch-job trace.
//
// The paper (Fig. 1) shows arrivals that are highly time-dependent — strong
// diurnal swings, sporadic per-organization submissions — and explicitly
// non-stationary. This generator produces exactly those properties:
//
//   rate_j(t) = base_j * diurnal_j(hour(t)) * burst_j(t) * weekend_j(t)
//   a_j(t)    = min(a_j^max, Poisson(rate_j(t)))
//
// where burst_j follows a two-state (idle/active) Markov chain per job type:
// organizations submit batches in sessions rather than continuously.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "workload/arrival_process.h"

namespace grefar {

/// Per-job-type generator parameters.
struct CosmosTypeParams {
  double base_rate = 2.0;          // jobs per slot at diurnal=burst=1
  double diurnal_amplitude = 0.6;  // 0..1: day/night swing strength
  double peak_hour = 14.0;         // busiest hour of day
  double burst_on_prob = 0.08;     // P(idle -> active) per slot
  double burst_off_prob = 0.25;    // P(active -> idle) per slot
  double burst_multiplier = 3.0;   // rate multiplier while active
  double idle_multiplier = 0.35;   // rate multiplier while idle
  double weekend_multiplier = 0.5; // rate multiplier on days 5,6 of each week
  std::int64_t a_max = 50;         // boundedness constant of eq. (1)
};

class CosmosLikeArrivals final : public ArrivalProcess {
 public:
  CosmosLikeArrivals(std::vector<CosmosTypeParams> params, std::uint64_t seed);

  std::vector<std::int64_t> arrivals(std::int64_t t) const override;
  void arrivals_into(std::int64_t t, std::vector<std::int64_t>& out) const override;
  std::size_t num_job_types() const override { return params_.size(); }
  std::int64_t max_arrivals(JobTypeId j) const override;

 private:
  void extend(std::int64_t t) const;

  std::vector<CosmosTypeParams> params_;
  std::uint64_t seed_;
  mutable std::vector<std::vector<std::int64_t>> count_cache_;  // [t][j]
  mutable std::vector<bool> burst_active_;
  mutable Rng rng_;
};

}  // namespace grefar

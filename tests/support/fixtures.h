// Fixtures several test binaries share: a small scenario for engine-level
// property tests and a per-slot problem built at one observation.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/drift_penalty.h"
#include "price/price_model.h"
#include "scenario/paper_scenario.h"
#include "sim/availability.h"
#include "workload/arrival_process.h"

namespace grefar {

/// A small 2-DC / 2-type / 2-account scenario with light Poisson load.
/// Deterministic per seed.
inline PaperScenario make_small_scenario(std::uint64_t seed) {
  PaperScenario s;
  s.seed = seed;
  s.config.server_types = {{"fast", 1.0, 1.0}, {"efficient", 0.5, 0.3}};
  s.config.data_centers = {{"east", {20, 10}}, {"west", {10, 20}}};
  s.config.accounts = {{"team-a", 0.6}, {"team-b", 0.4}};
  s.config.job_types = {
      {"a-job", 1.0, {0, 1}, 0},
      {"b-job", 2.0, {0, 1}, 1},
  };
  s.config.validate();
  s.arrivals = std::make_shared<PoissonArrivals>(
      std::vector<double>{4.0, 2.0}, std::vector<std::int64_t>{12, 6},
      seed ^ 0xB0B5ULL);
  std::vector<DiurnalOuParams> price_params(2);
  price_params[0] = {.mean = 0.40, .diurnal_amplitude = 0.12, .peak_hour = 15.0,
                     .reversion = 0.3, .volatility = 0.02, .floor = 0.05};
  price_params[1] = {.mean = 0.50, .diurnal_amplitude = 0.16, .peak_hour = 17.0,
                     .reversion = 0.3, .volatility = 0.03, .floor = 0.05};
  s.prices = std::make_shared<DiurnalOuPriceModel>(std::move(price_params),
                                                   seed ^ 0x9E1CEULL);
  s.availability = std::make_shared<FullAvailability>(s.config.data_centers);
  return s;
}

/// The per-slot problem of `config` and `params` reset to `obs`, which must
/// outlive the problem's next use.
inline PerSlotProblem observed_problem(const ClusterConfig& config,
                                       const SlotObservation& obs,
                                       const GreFarParams& params) {
  PerSlotProblem problem(config, params);
  problem.reset(obs);
  return problem;
}

}  // namespace grefar

// The paper's evaluation scenario (§VI-A), fully assembled:
//
//   * 3 data centers with the normalized server types of Table I
//     (speed/power 1.00/1.00, 0.75/0.60, 1.15/1.20);
//   * electricity prices calibrated so long-run averages match Table I
//     (0.392 / 0.433 / 0.548) with Fig.-1-like diurnal swings;
//   * 4 organizations with fairness weights 40/30/15/15%;
//   * 8 job types (small/large per organization, varied eligible sets)
//     driven by the Cosmos-like non-stationary arrival generator;
//   * random server availability sized so the slackness conditions hold.
//
// Everything is deterministic given `seed`. Benches, examples and the
// integration tests all build on this single definition.
#pragma once

#include <cstdint>
#include <memory>

#include "core/grefar.h"
#include "price/price_model.h"
#include "sim/availability.h"
#include "sim/cluster.h"
#include "sim/engine.h"
#include "workload/admission.h"
#include "workload/arrival_process.h"
#include "workload/cosmos_like.h"

namespace grefar {

struct PaperScenario {
  ClusterConfig config;
  std::shared_ptr<const PriceModel> prices;
  std::shared_ptr<const AvailabilityModel> availability;
  std::shared_ptr<const ArrivalProcess> arrivals;
  /// Optional admission-control stage ahead of routing (workload/admission.h);
  /// nullptr = admit everything (the paper's behavior). Honored by
  /// make_scenario_engine.
  std::shared_ptr<AdmissionPolicy> admission;
  std::uint64_t seed = 0;
};

/// Builds the full paper scenario. Deterministic per seed.
PaperScenario make_paper_scenario(std::uint64_t seed);

/// GreFar parameters as used in §VI (generous r_max/h_max; clamped queues).
GreFarParams paper_grefar_params(double V, double beta);

/// Whether scenario engines carry the per-slot InvariantAuditor
/// (check/invariant_auditor.h).
///   * kAuto  — kThrow in Debug builds (NDEBUG undefined), kOff otherwise:
///              every Debug/CI simulation is machine-checked for free while
///              Release benches keep the bare hot path;
///   * kOff   — no auditing;
///   * kThrow — audit every slot, abort on the first violation;
///   * kRecord— audit every slot, accumulate violation records (retrieve the
///              auditor via SimulationEngine::inspector()).
enum class AuditMode { kAuto, kOff, kThrow, kRecord };

/// Builds (but does not run) a job-level engine for `scenario` + `scheduler`
/// — the form the parallel sweep runner wants (it drives run() itself).
std::unique_ptr<SimulationEngine> make_scenario_engine(
    const PaperScenario& scenario, std::shared_ptr<Scheduler> scheduler,
    AuditMode audit = AuditMode::kAuto);

/// Runs `scheduler` on `scenario` for `horizon` slots on the job-level
/// engine and returns the engine (metrics inside).
std::unique_ptr<SimulationEngine> run_scenario(const PaperScenario& scenario,
                                               std::shared_ptr<Scheduler> scheduler,
                                               std::int64_t horizon,
                                               AuditMode audit = AuditMode::kAuto);

}  // namespace grefar

// SweepEngine: executes a SweepSpec's cross product with shared scenario
// artifacts, per-worker engine/scheduler arenas and chunked dynamic
// scheduling. DESIGN.md §16 documents the determinism argument; the short
// version:
//
//   * Plans are resolved serially in leg order; unique scenario keys are
//     materialized up front in first-reference order, so materialization
//     (the only RNG-consuming step) never races and never depends on --jobs.
//   * Legs are handed to workers in fixed consecutive ranges of `chunk`
//     (for_each_index_tasked). Each leg writes only its own result slot,
//     reads only immutable shared artifacts, and runs on exactly one
//     thread; with reuse, the per-worker arena state entering a leg is made
//     equivalent to a fresh engine/scheduler by reset()/begin_run(), so the
//     leg's outputs are a pure function of the leg alone — bit-identical at
//     any jobs and chunk size.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/grefar.h"
#include "scenario/paper_scenario.h"
#include "sim/engine.h"
#include "sweep/artifact_cache.h"
#include "sweep/sweep_spec.h"

namespace grefar {
namespace sweep {

struct SweepOptions {
  /// Worker count; 0 = ThreadPool::default_concurrency().
  std::size_t jobs = 1;
  /// Legs per ticket range (>= 1).
  std::size_t chunk_size = 1;
  /// Reuse each worker's engine + GreFar scheduler across its legs (the
  /// arena path). Off = construct fresh per leg (the reference behaviour
  /// the determinism suite compares against).
  bool reuse_engines = true;
  /// Per-leg InvariantAuditor attachment (scenario/paper_scenario.h
  /// semantics: kAuto = throw in Debug, off in Release).
  AuditMode audit = AuditMode::kAuto;
  /// Audit every `audit_stride`-th leg only (1 = every audited leg); lets a
  /// big sweep keep a sampled machine-checked leg without paying the audit
  /// everywhere.
  std::size_t audit_stride = 1;
};

struct SweepLegResult {
  SimMetrics metrics{1, 1};
  std::string scheduler_name;
  double leg_ms = 0.0;
};

struct SweepRunStats {
  std::size_t legs = 0;
  std::size_t unique_scenarios = 0;
  std::size_t workers = 0;
  std::size_t chunk = 0;
  double total_ms = 0.0;
  std::vector<double> leg_ms;  // wall time of each leg's engine.run()
};

class SweepEngine {
 public:
  explicit SweepEngine(SweepOptions options = {});

  /// Runs every leg of `spec`. `collect(leg, engine)` fires on the worker
  /// right after the leg's run (before the engine is reused), in ascending
  /// leg order within each chunk; it must only touch leg-owned state.
  /// `pre_run(leg, engine)` (optional) fires after the engine is bound to
  /// the leg but before run() — e.g. to attach a tracer. Rethrows the first
  /// failing leg's exception in leg order.
  SweepRunStats run(const SweepSpec& spec,
                    const std::function<void(std::size_t leg,
                                             SimulationEngine& engine)>& collect,
                    const std::function<void(std::size_t leg,
                                             SimulationEngine& engine)>& pre_run =
                        nullptr);

  /// run() with the default collector: copies out per-leg metrics,
  /// scheduler name and wall time.
  std::vector<SweepLegResult> run_collect(
      const SweepSpec& spec,
      const std::function<void(std::size_t leg, SimulationEngine& engine)>&
          pre_run = nullptr);

  const SweepOptions& options() const { return options_; }
  const SweepRunStats& last_stats() const { return stats_; }

 private:
  /// One worker's persistent state. Arenas live across run() calls, so a
  /// steady-state re-run of the same spec constructs nothing.
  struct WorkerArena {
    std::unique_ptr<SimulationEngine> engine;
    std::shared_ptr<GreFarScheduler> grefar;
    const ClusterConfig* grefar_config = nullptr;  // config grefar was built on
  };

  SweepOptions options_;
  ArtifactCache cache_;
  std::vector<WorkerArena> arenas_;
  SweepRunStats stats_;
};

}  // namespace sweep
}  // namespace grefar

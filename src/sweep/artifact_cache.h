// Shared immutable scenario artifacts for sweep execution (DESIGN.md §16).
//
// A sweep leg used to *regenerate* its scenario inside its closure: fresh
// RNG-backed price/arrival/availability models, a fresh ClusterConfig copy.
// That was the only thread-safe option — the stochastic models carry lazily
// extended mutable caches and must never be shared between concurrent runs.
// Materialization removes the mutability instead of duplicating the work:
// each unique scenario key is realized ONCE into table-backed models
// (TablePriceModel / TableAvailability / Table- or ValuedTableArrivals) over
// [0, horizon). Tables are immutable after construction, so every leg that
// references the key shares one read-only ScenarioArtifacts through
// shared_ptrs — including across worker threads.
//
// Bitwise contract: a table model replays, by construction, exactly the
// values the lazy model produces for slots in [0, horizon) — the cache is
// invisible to simulation results. One documented exception:
// ArrivalProcess::max_arrivals() of a table is derived from the realized
// table rather than the generator's a_max envelope, so *forecast consumers*
// (MPC lookahead) may differ at FP level from the lazy path. No
// bitwise-equality gate in this repo involves MPC.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "scenario/paper_scenario.h"

namespace grefar {
namespace sweep {

/// One materialized scenario: immutable, shareable across threads and legs.
struct ScenarioArtifacts {
  std::shared_ptr<const ClusterConfig> config;
  std::shared_ptr<const PriceModel> prices;
  std::shared_ptr<const AvailabilityModel> availability;
  std::shared_ptr<const ArrivalProcess> arrivals;
  /// Admission policy factory state lives in the scenario, not here:
  /// policies are cheap and engine-local (attached per leg).
  std::shared_ptr<AdmissionPolicy> admission;
  /// Slots the tables cover. Table models wrap modulo their length, so a
  /// run longer than this would silently replay the prefix — the sweep
  /// engine contract-checks run horizon <= this.
  std::int64_t horizon = 0;
  std::uint64_t seed = 0;
};

/// Realizes `scenario`'s models into table-backed immutable artifacts over
/// [0, horizon). Values replayed for slots < horizon are bitwise equal to
/// the lazy models'.
ScenarioArtifacts materialize_scenario(const PaperScenario& scenario,
                                       std::int64_t horizon);

/// Hash-cons store: one ScenarioArtifacts per unique key, built on first
/// reference, shared read-only afterwards. Thread-safe; the builder for a
/// given key runs at most once (under the lock — materialization is the
/// expensive step sharing exists to amortize, so serializing builds of the
/// *same* key is the point; distinct keys are typically materialized before
/// the parallel phase by SweepEngine).
class ArtifactCache {
 public:
  using Builder = std::function<ScenarioArtifacts()>;

  /// Returns the artifacts for `key`, invoking `builder` exactly once per
  /// unique key. Counts obs "sweep.artifact_hits"/"sweep.artifact_misses".
  std::shared_ptr<const ScenarioArtifacts> get_or_build(const std::string& key,
                                                        const Builder& builder);

 private:
  std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const ScenarioArtifacts>> map_;
};

}  // namespace sweep
}  // namespace grefar

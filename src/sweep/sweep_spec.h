// SweepSpec: a declarative, config-driven cross product of sweep axes — the
// batch scenario-sweep API the ROADMAP's scenario-gym item calls for.
//
// A spec is axes (outermost first, LAST axis innermost/fastest-varying) plus
// two callbacks: `scenario` maps a grid point to the PaperScenario it runs
// in (legs mapping to the same scenario_key share one materialized artifact
// set — see artifact_cache.h), and `plan` maps a grid point to the leg's
// scheduler/admission/engine configuration. Leg indices enumerate the cross
// product row-major: leg = ((i0 * n1 + i1) * n2 + i2) ... with the last
// axis fastest.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/grefar.h"
#include "scenario/paper_scenario.h"
#include "sim/scheduler.h"
#include "sweep/artifact_cache.h"
#include "workload/admission.h"

namespace grefar {
namespace sweep {

/// One sweep dimension. `values` and/or `labels` name the points; they must
/// agree on the count when both are given. The default member initializers
/// let a designated initializer name only the members it sets.
struct SweepAxis {
  std::string name = {};
  std::vector<double> values = {};
  std::vector<std::string> labels = {};

  std::size_t size() const;
};

/// A resolved point of the cross product: per-axis indices plus the flat
/// leg number.
class SweepSpec;
struct SweepPoint {
  const SweepSpec* spec = nullptr;
  std::vector<std::size_t> coords;  // one index per axis
  std::size_t leg = 0;

  std::size_t index(std::size_t axis) const { return coords.at(axis); }
  double value(std::size_t axis) const;
};

/// The two-field spelling `GreFarLegSpec{params, {}}` of a GreFar leg,
/// from when the second field picked the per-slot solver. A leg is now just
/// its GreFarParams (LegPlan::grefar); the second field is ignored and the
/// spec converts to its params.
struct GreFarLegSpec {
  GreFarParams params;
  std::monostate unused;
  operator GreFarParams() const { return params; }  // NOLINT(google-explicit-constructor)
};

/// Everything the sweep engine needs to run one leg.
struct LegPlan {
  /// Artifact-cache key; legs with equal keys must describe the *same*
  /// scenario (they share one materialized instance).
  std::string scenario_key;
  /// Exactly one of grefar / make_scheduler must be set. A GreFar leg rides
  /// the scheduler arena: one persistent GreFarScheduler per worker is
  /// re-targeted via begin_run() instead of reconstructed. Legs needing any
  /// other Scheduler provide make_scheduler.
  std::optional<GreFarParams> grefar;
  std::function<std::shared_ptr<Scheduler>(const ScenarioArtifacts&)> make_scheduler;
  /// Optional per-leg admission policy; overrides the scenario's (which is
  /// attached when this is unset and the scenario carries one).
  std::function<std::shared_ptr<AdmissionPolicy>(const ScenarioArtifacts&)>
      make_admission;
};

class SweepSpec {
 public:
  std::vector<SweepAxis> axes;  // outermost first; LAST axis is innermost
  std::int64_t horizon = 0;
  std::function<PaperScenario(const SweepPoint&)> scenario;
  std::function<LegPlan(const SweepPoint&)> plan;

  std::size_t num_axes() const { return axes.size(); }
  std::size_t num_legs() const;
  SweepPoint point(std::size_t leg) const;

  void validate() const;
};

}  // namespace sweep
}  // namespace grefar

// SlotRecord / SlotInspector: the engine's per-slot observation hook.
//
// When an inspector is attached (SimulationEngine::set_inspector) the engine
// assembles, for every slot, a SlotRecord tying together what the scheduler
// saw (the pre-action observation), what it asked for (the action), and what
// the engine actually did (jobs moved, work served, energy billed, the
// post-slot queues). The record is handed to the inspector at the end of
// step(), after arrivals were admitted, so the post-slot queues follow the
// paper's update recurrence exactly:
//
//   Q_j(t+1)     = max[Q_j(t) - sum_i routed_{i,j}(t), 0] + a_j(t)
//   q_{i,j}(t+1) = max[q_{i,j}(t) + routed_{i,j}(t) - served_{i,j}(t)/d_j, 0]
//
// All pointers reference engine-owned scratch that is valid only for the
// duration of the inspect() call; inspectors must copy anything they keep.
// The canonical inspector is check/invariant_auditor.h, which turns these
// records into machine-checked feasibility invariants.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/scheduler.h"
#include "util/matrix.h"

namespace grefar {

struct TraceScope;  // obs/trace_scope.h

/// Everything that happened during one engine slot.
struct SlotRecord {
  std::int64_t slot = 0;
  const SlotObservation* obs = nullptr;  // state the scheduler decided on
  const SlotAction* action = nullptr;    // the scheduler's (unclamped) ask
  const MatrixD* routed = nullptr;       // whole jobs moved central -> DC, N x J
  const MatrixD* served_work = nullptr;  // work units actually served, N x J
  const std::vector<double>* dc_capacity = nullptr;     // sum_k n_{i,k} s_k, per DC
  const std::vector<double>* dc_energy_cost = nullptr;  // billed cost per DC
  const std::vector<double>* dc_completions = nullptr;  // jobs finished, per DC
  const std::vector<double>* dc_delay_sum = nullptr;    // slots of delay, per DC
  const std::vector<double>* account_work = nullptr;    // served work per account
  double fairness = 0.0;                                // f(t) as recorded
  const std::vector<std::int64_t>* arrivals = nullptr;  // a_j(t) admitted, per type
  const std::vector<double>* central_after = nullptr;   // Q_j(t+1), jobs
  const MatrixD* dc_after = nullptr;                    // q_{i,j}(t+1), jobs
  /// Scheduler-internal annotations for this slot, when the scheduler filled
  /// any (nullptr for schedulers that ignore the scope).
  const TraceScope* scope = nullptr;

  // -- admission / value economics (workload/admission.h) --------------------
  // `arrivals` above is post-admission: exactly what entered the queues, so
  // the queue-recurrence invariants hold unchanged. `offered` is the raw
  // pre-admission a_j(t); with no policy attached the two are equal.
  const std::vector<std::int64_t>* offered = nullptr;  // pre-admission a_j(t)
  /// True when an admission policy or valued arrivals shape this run (the
  /// value fields below are then meaningful and traced).
  bool admission_active = false;
  double admitted_value = 0.0;   // sum of base values admitted this slot
  double rejected_value = 0.0;   // sum of base values turned away this slot
  double realized_value = 0.0;   // decayed value of this slot's completions
  double decay_loss = 0.0;       // base - realized over this slot's completions
  double abandoned_jobs = 0.0;   // deadline-expired jobs removed this slot
  double abandoned_work = 0.0;   // their remaining work units
  double abandoned_value = 0.0;  // their base values
  double queued_value_after = 0.0;  // sum of base values still queued, post-slot
  /// Jobs that completed after their deadline — must always be zero (the
  /// engine abandons overdue jobs before serving; auditor invariant G).
  std::int64_t deadline_violations = 0;
};

/// Per-slot hook. Implementations must not mutate engine state; throwing
/// aborts the simulation (the auditor's strict mode does exactly that).
class SlotInspector {
 public:
  virtual ~SlotInspector() = default;
  virtual void inspect(const SlotRecord& record) = 0;
  /// Called once after the last slot by a run that owns the inspector's end
  /// (the serve loop): an inspector that stages output writes it here.
  /// Throwing reports a failure as inspect() does.
  virtual void finish() {}
};

}  // namespace grefar

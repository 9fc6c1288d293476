// SimulationEngine: the discrete-time simulator that drives a Scheduler
// through the system of paper §III and accounts energy, fairness and delay.
//
// Slot lifecycle (see DESIGN.md §3 for the clamping rationale):
//   1. observe x(t) = {prices, availability} and queue state Theta(t);
//   2. scheduler decides z(t) = {r, h};
//   3. routing: up to r_{i,j} whole jobs move FIFO from central queue j to
//      DC queue (i,j) (eligible DCs only, most-beneficial DC first);
//   4. service: up to h_{i,j} * d_j work units of fluid FIFO service per DC
//      queue, total clamped to the DC's available capacity; energy is
//      charged via the minimum-energy curve on the work actually served;
//   5. fairness is scored on the per-account work actually served;
//   6. arrivals a_j(t) join the central queues (visible from slot t+1).
//
// Two optional stages bracket the lifecycle when the workload carries value
// annotations (workload/job.h):
//   0. deadline expiry: before observing, jobs whose deadline has passed are
//      abandoned (they can no longer complete in time and must never be
//      served — auditor invariant G);
//   6'. admission control: an attached AdmissionPolicy screens each arrival
//      batch before it joins the queues; rejected jobs never enter any queue.
// Both stages are skipped entirely (zero per-slot cost beyond one branch)
// when no policy is attached and no job type / arrival carries a deadline.
//
// With the engine's clamping, queue lengths follow
//   Q_j(t+1) = max[Q_j(t) - sum_i r_{i,j}(t), 0] + a_j(t)
//   q_{i,j}(t+1) = max[q_{i,j}(t) + r_{i,j}(t) - h_{i,j}(t), 0]
// which is the paper's dynamics (12)-(13) with service also covering
// just-routed jobs (never-larger queues; Theorem 1's bounds still apply).
// The ScalarQueueSimulator replays the *literal* (12)-(13) for theorem tests.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/trace_scope.h"
#include "price/price_model.h"
#include "sim/availability.h"
#include "sim/cluster.h"
#include "sim/energy.h"
#include "sim/fairness.h"
#include "sim/metrics.h"
#include "sim/queue.h"
#include "sim/scheduler.h"
#include "sim/slot_inspector.h"
#include "util/annotations.h"
#include "workload/admission.h"
#include "workload/arrival_process.h"

namespace grefar {

struct EngineOptions {
  /// When true (default) slot-t service may also cover jobs routed during
  /// slot t; when false service applies only to jobs already queued at the
  /// start of the slot (the literal eq. (13) ordering).
  bool serve_routed_same_slot = true;
};

class SimulationEngine {
 public:
  SimulationEngine(ClusterConfig config, std::shared_ptr<const PriceModel> prices,
                   std::shared_ptr<const AvailabilityModel> availability,
                   std::shared_ptr<const ArrivalProcess> arrivals,
                   std::shared_ptr<Scheduler> scheduler, EngineOptions options = {});

  /// Shared-config overload: at M = 10^6 accounts a ClusterConfig weighs
  /// ~10^2 MB, so engine/scheduler/auditor sharing one immutable instance
  /// (instead of a value copy each) is what keeps peak RSS bounded
  /// (DESIGN.md §12). The by-value overload above delegates here.
  SimulationEngine(std::shared_ptr<const ClusterConfig> config,
                   std::shared_ptr<const PriceModel> prices,
                   std::shared_ptr<const AvailabilityModel> availability,
                   std::shared_ptr<const ArrivalProcess> arrivals,
                   std::shared_ptr<Scheduler> scheduler, EngineOptions options = {});

  /// Rebinds this engine to a new scenario without reconstructing it — the
  /// sweep arena's reuse path (DESIGN.md §16). Performs the constructor's
  /// null/dimension checks, swaps in the new models/scheduler/options, and
  /// returns every piece of mutable simulation state (queues, metrics, slot
  /// counter, job ids, per-account accumulators) to its freshly-constructed
  /// value; admission policy and inspector are detached (re-attach per leg).
  /// Scratch buffers keep their high-water capacity, so when the cluster
  /// shape is unchanged the reset itself is allocation-free and the
  /// subsequent run is bitwise identical to a fresh engine's. Passing the
  /// *same* ClusterConfig instance (pointer equality) skips re-validation.
  void reset(std::shared_ptr<const ClusterConfig> config,
             std::shared_ptr<const PriceModel> prices,
             std::shared_ptr<const AvailabilityModel> availability,
             std::shared_ptr<const ArrivalProcess> arrivals,
             std::shared_ptr<Scheduler> scheduler, EngineOptions options = {});

  /// Advances the simulation by `slots` steps.
  void run(std::int64_t slots);

  /// Advances by a single slot.
  GREFAR_HOT_PATH
  void step();

  std::int64_t slot() const { return slot_; }
  const SimMetrics& metrics() const { return metrics_; }
  const ClusterConfig& config() const { return *config_; }
  const Scheduler& scheduler() const { return *scheduler_; }

  /// Queue introspection (jobs).
  double central_queue_length(JobTypeId j) const;
  double dc_queue_length(DataCenterId i, JobTypeId j) const;

  /// Builds the observation for the current slot (exposed for tests).
  SlotObservation observe() const;

  /// Writes the current-slot observation into `out`, reusing its storage
  /// (the engine's own step() path; steady-state allocation-free).
  GREFAR_HOT_PATH
  void observe_into(SlotObservation& out) const;

  /// Attaches a per-slot inspector (nullptr detaches). While attached, the
  /// engine additionally tracks per-(i,j) routed jobs and served work and
  /// hands a SlotRecord to the inspector at the end of every step(); the
  /// extra bookkeeping is skipped entirely when no inspector is set.
  void set_inspector(std::shared_ptr<SlotInspector> inspector);
  SlotInspector* inspector() const { return inspector_.get(); }
  /// Shared handle to the attached inspector (for wrapping, e.g. tee-ing a
  /// tracer with an already-attached invariant auditor).
  const std::shared_ptr<SlotInspector>& shared_inspector() const {
    return inspector_;
  }

  /// Attaches an admission policy (nullptr detaches = admit everything).
  /// The policy screens every arrival batch before it joins the central
  /// queues; decisions are all-or-nothing accounting-wise — the policy
  /// returns how many of the batch's identical jobs to admit, and the
  /// remainder is rejected with its value recorded (never queued).
  /// Deterministic policies keyed on (seed, slot) preserve the engine's
  /// bit-identical replay contract (DESIGN.md §11).
  void set_admission_policy(std::shared_ptr<AdmissionPolicy> policy);
  AdmissionPolicy* admission_policy() const { return admission_.get(); }

 private:
  GREFAR_HOT_PATH
  void route(const SlotObservation& obs, const SlotAction& action);
  GREFAR_HOT_PATH
  void serve(const SlotObservation& obs, const SlotAction& action);
  void admit_arrivals();
  /// Abandons every queued job whose deadline_slot precedes the current
  /// slot (stage 0 above). O(1) per deadline-free queue via the queues'
  /// min-deadline watermark.
  GREFAR_HOT_PATH
  void expire_deadlines();
  /// Fills eligible_mask_ from config_'s job types.
  void build_eligible_mask();

  std::shared_ptr<const ClusterConfig> config_;  // immutable, shareable
  std::shared_ptr<const PriceModel> prices_;
  std::shared_ptr<const AvailabilityModel> availability_;
  std::shared_ptr<const ArrivalProcess> arrivals_;
  std::shared_ptr<Scheduler> scheduler_;
  std::shared_ptr<AdmissionPolicy> admission_;   // nullptr = admit all
  EngineOptions options_;
  /// True when the arrival process carries per-batch value annotations;
  /// admit_arrivals then pulls valued batches instead of plain counts.
  bool valued_arrivals_ = false;
  /// True when any queued job could ever carry a deadline (a job type
  /// declares one, or arrivals are valued and may annotate one); gates the
  /// expiry stage so deadline-free runs pay nothing.
  bool deadlines_possible_ = false;

  std::int64_t slot_ = 0;
  std::uint64_t next_job_id_ = 1;
  std::vector<FifoJobQueue> central_;            // per job type
  std::vector<std::vector<FifoJobQueue>> dc_;    // [i][j]
  /// eligible_mask_[i * J + j] = 1 iff DC i is in job type j's D_j; built
  /// with the config so the per-slot contract check is one load per pair.
  std::vector<unsigned char> eligible_mask_;
  FairnessFunction fairness_fn_;
  SimMetrics metrics_;

  // Per-step buffers reused across slots so the steady-state step() makes
  // no heap allocations of its own (an engine instance is single-threaded;
  // concurrent simulations each own an engine — see src/parallel/).
  SlotObservation obs_scratch_;
  SlotAction action_scratch_;
  std::vector<EnergyCostCurve> curves_;          // per DC, rebuilt per slot
  std::vector<std::int64_t> avail_row_;          // one DC's availability row
  std::vector<double> want_;                     // per-type desired work
  mutable std::vector<unsigned char> active_flag_;  // observe_into: type has queue
  /// Per-account served work, length M. All-zero invariant between slots:
  /// only the accounts listed in touched_accounts_ hold non-zeros, and
  /// serve() clears exactly those on entry — O(active) per slot instead of
  /// an O(M) refill at a million accounts (DESIGN.md §12).
  std::vector<double> account_work_;
  std::vector<std::uint32_t> touched_accounts_;  // accounts served this slot
  std::vector<double> active_work_;              // gathered r_active for scoring
  std::vector<double> routed_per_dc_;            // per-DC routed jobs
  std::vector<std::size_t> route_order_;         // routing destinations, sorted
  std::vector<Completion> completions_;          // one queue's completions
  std::vector<std::int64_t> arrival_counts_;     // per-type admitted arrivals
  std::vector<std::int64_t> offered_counts_;     // per-type pre-admission a_j(t)
  std::vector<ArrivalBatch> batch_scratch_;      // this slot's arrival batches
  std::vector<Job> expired_scratch_;             // this slot's abandoned jobs

  // Per-slot value/admission accumulators, reset at the top of step() and
  // published to metrics / the SlotRecord / the TraceScope at the end.
  std::int64_t slot_offered_jobs_ = 0;
  std::int64_t slot_admitted_jobs_ = 0;
  std::int64_t slot_rejected_jobs_ = 0;
  std::int64_t slot_deadline_violations_ = 0;
  double slot_admitted_value_ = 0.0;
  double slot_rejected_value_ = 0.0;
  double slot_realized_value_ = 0.0;
  double slot_decay_loss_ = 0.0;
  double slot_abandoned_jobs_ = 0.0;
  double slot_abandoned_work_ = 0.0;
  double slot_abandoned_value_ = 0.0;

  // Inspector support: extra per-slot bookkeeping (same reuse discipline as
  // the scratch above), maintained only while inspector_ is attached.
  std::shared_ptr<SlotInspector> inspector_;
  MatrixD routed_mat_;                           // jobs moved per (i,j)
  MatrixD served_mat_;                           // work served per (i,j)
  std::vector<double> dc_capacity_record_;       // per-DC capacity
  std::vector<double> dc_energy_record_;         // per-DC billed cost
  std::vector<double> dc_completions_record_;    // per-DC jobs finished
  std::vector<double> dc_delay_record_;          // per-DC completion delay sum
  double fairness_record_ = 0.0;
  std::vector<double> central_after_;            // Q_j(t+1)
  MatrixD dc_after_;                             // q_{i,j}(t+1)
  TraceScope trace_scope_;                       // scheduler annotations
};

}  // namespace grefar

// The GreFar per-slot optimization problem (paper eq. (14)).
//
// At slot t GreFar minimizes, over the action z(t),
//
//   V*g(t) - sum_j Q_j [sum_{i in D_j} r_{i,j}] + sum_{i,j} q_{i,j} (r_{i,j} - h_{i,j})
//
// The r- and h-parts separate:
//   * r_{i,j} has linear coefficient (q_{i,j} - Q_j): route maximally where
//     the DC queue is shorter than the central queue (handled in
//     GreFarScheduler directly);
//   * the h/b-part, in work variables u_{i,j} = h_{i,j} * d_j, is the convex
//     program built here:
//
//       min  sum_i [ V*phi_i*C_i(sum_j u_{i,j}) - sum_j (q_{i,j}/d_j) u_{i,j} ]
//            + V*beta * sum_m (r_m(u)/R - gamma_m)^2
//       s.t. 0 <= u_{i,j} <= ub_{i,j},  sum_j u_{i,j} <= cap_i,
//
// with C_i the minimum-energy curve and r_m(u) the per-account work. This
// file exposes the problem as a ConvexObjective over a CappedBoxPolytope so
// any first-order solver can run on it; variables are flattened as
// index = i * J + j.
//
// Compact (active-type) mode — DESIGN.md §12. At million-type /
// million-account scale almost every column is dead in any given slot: a
// type with nothing queued anywhere has queue value 0 and (with
// clamp_to_queue) upper bound 0, so no solver can put work on it. When the
// observation carries the active-type hint and sparse mode is enabled (the
// GreFar scheduler does this for the greedy and PGD solvers), reset()
// re-shapes the problem onto the A = |active| types only: variables become
// i * A + a with a indexing the ascending active-type list, every per-type
// array is gathered to length A, and the fairness state collapses to the
// accounts those types reference. Per-slot cost is then O(N*A + A log A)
// instead of O(N*J), and — by the exact-zero kernel argument in
// sim/fairness.h plus the dead-column gradient rule below — the solve is
// *bit-identical* to the dense solve scattered back to full coordinates.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/problem_view.h"
#include "parallel/shard.h"
#include "sim/cluster.h"
#include "sim/energy.h"
#include "sim/fairness.h"
#include "sim/scheduler.h"
#include "solver/capped_box.h"
#include "solver/objective.h"
#include "util/annotations.h"
#include "util/check.h"

namespace grefar {

/// Tuning knobs shared by the per-slot problem and the GreFar scheduler.
struct GreFarParams {
  double V = 1.0;      // cost-delay parameter (>= 0)
  double beta = 0.0;   // energy-fairness parameter (>= 0)
  double r_max = 1e9;  // per-(i,j) routing bound r^max (eq. (4))
  double h_max = 1e9;  // per-(i,j) processing bound h^max (eq. (5))
  /// Cap processing by the work actually queued (and routing by the jobs
  /// actually queued). Disable to reproduce the literal dynamics (12)-(13)
  /// where "null" work is permitted.
  bool clamp_to_queue = true;
  /// Evaluate the processing decision against the post-routing queues
  /// q_{i,j} + r_{i,j} (the state service actually sees, since routing
  /// executes first within a slot). Disable for the literal eq. (13)
  /// ordering, which adds one slot of service lag.
  bool process_after_routing = true;
  /// Start the iterative per-slot solvers (Frank-Wolfe / PGD) from the
  /// previous slot's solution (projected onto the current capacity box)
  /// instead of the greedy point. Queues and prices move slowly slot to
  /// slot, so the previous optimum is usually a few iterations from the new
  /// one. Disable for A/B comparison against the historical cold start;
  /// ignored by the greedy and LP solvers, which are not iterative.
  bool warm_start_across_slots = true;
  /// Intra-slot data parallelism: shard the per-slot rebuild, the greedy
  /// fill and the PGD/FW gradient/value kernels across data centers on a
  /// persistent worker pool. 1 (default) keeps the serial fast path; the
  /// pooled path only engages when num_vars() >= intra_slot_min_vars, so
  /// small instances never pay synchronization for kernels that take
  /// microseconds. Decisions are bit-identical at any value (see
  /// DESIGN.md §11: kernels write per-DC slots, merged in DC order).
  std::size_t intra_slot_jobs = 1;
  /// Size threshold (in N*J decision variables) below which the sharded
  /// kernels stay inline even when intra_slot_jobs > 1.
  std::size_t intra_slot_min_vars = 4096;
};

/// The per-slot convex program in work units u (flattened N*J vector, or
/// N*A in compact mode — see the header comment).
///
/// Hot-path note: a long-lived scheduler constructs one PerSlotProblem on
/// its first slot and calls reset() on every later slot — curves, polytope,
/// and all internal vectors are then updated in place, so steady-state
/// problem construction is allocation-free (compact-mode buffers reach
/// their high-water size after a few slots and are reused thereafter). An
/// instance is single-threaded from the caller's point of view (concurrent
/// runs each own their problem); with an intra-slot executor attached, its
/// kernels internally fan per-DC work over the executor's pool and join
/// before returning.
class PerSlotProblem final : public ConvexObjective {
 public:
  PerSlotProblem(const ClusterConfig& config, const SlotObservation& obs,
                 const GreFarParams& params);

  /// Deferred variant: bakes the config-derived state but performs no
  /// initial reset — the caller must reset() before any other use. Lets a
  /// caller that re-resets immediately (sparse mode / executor attached
  /// after construction) pay for and count exactly one reset, the same as
  /// every later slot.
  PerSlotProblem(const ClusterConfig& config, const GreFarParams& params);

  /// Re-targets the problem at a new observation of the *same* cluster and
  /// params, reusing all internal storage. `obs` must outlive the problem's
  /// next use (the problem keeps a pointer, not a copy).
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void reset(const SlotObservation& obs);

  /// Re-targets the problem at new GreFar parameters for the *same* cluster
  /// (sweep-leg reuse). Safe because the constructor bakes only
  /// config-derived state; everything parameter-dependent is recomputed from
  /// params_ inside the next reset(). Runs the constructor's param checks.
  void rebind_params(const GreFarParams& params) {
    GREFAR_CHECK(params.V >= 0.0);
    GREFAR_CHECK(params.beta >= 0.0);
    GREFAR_CHECK(params.r_max >= 0.0);
    GREFAR_CHECK(params.h_max >= 0.0);
    params_ = params;
  }

  /// Opts in to compact active-type resets. Takes effect at the next
  /// reset(), and only when the observation carries a valid active-type
  /// hint and params.clamp_to_queue is set (without the clamp, dead types
  /// keep ub = h_max * d_j and cannot be dropped). Off by default, so every
  /// existing caller keeps the dense problem.
  void set_sparse_enabled(bool enabled) { sparse_enabled_ = enabled; }

  /// True when the *current* reset ran compact: variables are i*A+a over
  /// the active_type_ids() list instead of i*J+j.
  bool compact() const { return compact_; }

  /// Ascending active type ids the compact problem is defined over (column
  /// a is job type active_type_ids()[a]). Empty/meaningless in dense mode.
  const std::vector<std::uint32_t>& active_type_ids() const { return active_types_; }

  /// Number of type columns of the current problem: A in compact mode, J
  /// otherwise. num_vars() and all flattened arrays use this stride.
  std::size_t num_types_effective() const { return num_types_eff_; }

  std::size_t num_vars() const { return num_dcs_ * num_types_eff_; }
  /// Flat index in *effective* type space (j < num_types_effective()).
  std::size_t index(DataCenterId i, JobTypeId j) const { return i * num_types_eff_ + j; }

  /// Feasible region: box [0, ub] with one capacity group per data center.
  const CappedBoxPolytope& polytope() const { return polytope_; }

  /// Energy curves per data center for this slot's availability.
  const EnergyCostCurve& curve(DataCenterId i) const { return curves_[i]; }

  /// Total compute resource R(t) (work units across all DCs).
  double total_resource() const { return total_resource_; }

  /// Queue benefit per unit work: q_{i,j} / d_j (0 for ineligible pairs).
  /// Dense-mode accessor (j is a full-space type id); the compact hot paths
  /// read view().queue_value instead.
  double queue_value(DataCenterId i, JobTypeId j) const;

  /// Flat structure-of-arrays borrow of the current slot's problem data
  /// (see problem_view.h). Invalidated by the next reset(). In compact mode
  /// the per-type arrays are the gathered length-A versions and
  /// view().type_ids maps columns back to job types.
  PerSlotView view() const;

  /// Attaches (or detaches, with nullptr) the executor used for intra-slot
  /// DC sharding. Borrowed: the caller (GreFarScheduler) owns the executor
  /// and keeps it alive for the problem's lifetime.
  void set_intra_slot_executor(IntraSlotExecutor* executor) { executor_ = executor; }

  /// The executor when the pooled path is engaged for this instance's size,
  /// nullptr when kernels should stay serial (see GreFarParams).
  IntraSlotExecutor* intra_slot_executor() const {
    return (executor_ != nullptr && executor_->jobs() > 1 &&
            num_vars() >= params_.intra_slot_min_vars)
               ? executor_
               : nullptr;
  }

  // ConvexObjective: the h-part of eq. (14) as described above.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  double value(const std::vector<double>& x) const override;
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void gradient(const std::vector<double>& x, std::vector<double>& out) const override;
  /// One row pass over x for both results; bitwise equal to value(x) and
  /// gradient(x, out) called separately.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  double value_and_gradient(const std::vector<double>& x,
                            std::vector<double>& out) const override;

  const GreFarParams& params() const { return params_; }
  const ClusterConfig& config() const { return *config_; }
  const SlotObservation& observation() const { return *obs_; }

 private:
  /// Shared first half of value()/gradient(): per-DC row reductions of x
  /// (work, queue-value dot, account partials) plus the per-DC energy term,
  /// written to the dc_*_ / account_partial_ slots. Sharded across DCs when
  /// the executor is engaged; the callers merge the slots in DC order, so
  /// the result is bit-identical at any job count.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void accumulate_rows(const std::vector<double>& x, bool need_value,
                       bool need_marginal, bool need_accounts) const;

  /// accumulate_rows for the R rows i0 .. i0+R-1: the rows' serial sums
  /// advance side by side, each adding its own operands in index order, so
  /// every row's result is the one a single-row pass gives.
  template <std::size_t R>
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC void accumulate_block(
      const double* x, std::size_t i0, bool need_value, bool need_marginal,
      bool need_accounts) const;

  /// Per-DC energy term of row i from its reductions.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void finish_row(std::size_t i, double dc_work, double queue_dot, bool need_value,
                  bool need_marginal) const;

  /// Second halves of value() and gradient(), after accumulate_rows (and,
  /// when `fair`, merge_account_work) have run over the same x.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  double finish_value(bool fair) const;
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void finish_gradient(bool fair, std::vector<double>& out) const;

  /// Merges account_partial_ into account_scratch_ in DC order.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void merge_account_work() const;

  const ClusterConfig* config_;
  const SlotObservation* obs_;
  GreFarParams params_;
  std::size_t num_dcs_;
  std::size_t num_types_;      // J: full-space type count
  std::size_t num_accounts_;   // M: full-space account count
  IntraSlotExecutor* executor_ = nullptr;
  std::vector<EnergyCostCurve> curves_;
  std::vector<double> smoothing_band_;  // per-DC kink-blend half-width (work)
  std::vector<double> energy_band_;     // per-DC tariff-blend half-width (energy)
  double total_resource_ = 0.0;
  FairnessFunction fairness_;
  CappedBoxPolytope polytope_;
  std::vector<double> queue_value_;  // q/d, flattened [N * num_types_eff_]

  // Static SoA arrays (see problem_view.h), built once at construction.
  std::vector<std::uint8_t> eligible_;   // [N*J] 1 iff i in D_j
  std::vector<double> work_;             // [J] d_j
  std::vector<double> inv_work_;         // [J] 1/d_j
  std::vector<std::uint32_t> account_of_;  // [J]
  std::vector<double> max_rate_;           // [J] work one job absorbs per slot
  std::vector<std::uint8_t> rate_capped_;  // [J] 1 iff max_rate_ is finite
  std::vector<double> speed_;            // [K]
  std::vector<double> busy_power_;       // [K]
  std::vector<double> energy_per_work_;  // [K]
  bool any_rate_cap_ = false;            // any finite JobType::max_rate?

  // Account compaction (DESIGN.md §12). The fairness accumulators never
  // span all M accounts: dense resets use the *referenced* set (accounts
  // some job type maps to — computed once, account_of_ is static) and
  // compact resets the per-slot *active* set (accounts of active types).
  // Accounts outside the chosen set provably accumulate exactly 0.0 work,
  // and fairness_kernel::term(0, g, inv) is an exact float zero, so both
  // compacted sums are bitwise equal to the full-M sum.
  std::vector<std::uint32_t> referenced_accounts_;   // static, ascending
  std::vector<std::uint32_t> account_slot_static_;   // [J] -> referenced slot

  // Compact-mode per-slot state (sized/filled by a compact reset).
  bool sparse_enabled_ = false;
  bool compact_ = false;
  std::size_t num_types_eff_;             // A when compact, J otherwise
  std::vector<std::uint32_t> active_types_;     // [A] ascending type ids
  std::vector<double> work_eff_;                // [A] gathered d_j
  std::vector<double> inv_work_eff_;            // [A]
  std::vector<std::uint32_t> account_of_eff_;   // [A] global account ids
  std::vector<double> max_rate_eff_;            // [A]
  std::vector<std::uint8_t> rate_capped_eff_;   // [A]
  std::vector<std::uint8_t> eligible_eff_;      // [N*A]
  std::vector<std::uint32_t> active_accounts_;  // ascending account ids
  std::vector<std::uint32_t> account_slot_eff_; // [A] -> active-account slot

  // Per-slot SoA arrays refreshed by reset().
  std::vector<double> dc_capacity_;      // [N] curve capacity per DC
  std::size_t num_account_slots_ = 0;    // rows of the account accumulators
  /// Dead-column mask for the fairness gradient (built when beta > 0):
  /// active_col_[j] == 0 iff ub_{i,j} == 0 for every DC i. Such a column's
  /// fairness term is zeroed in the gradient — the column cannot move and
  /// its account received no work through it. Compact PGD (where dead
  /// columns simply don't exist) is bit-identical to dense PGD because the
  /// projection skips ub == 0 entries outright (DESIGN.md §11).
  mutable std::vector<std::uint8_t> active_col_;  // [num_types_eff_]

  // Reused scratch: value()/gradient() run every solver iteration and must
  // not touch the heap. The per-DC slot arrays are what makes the sharded
  // kernels deterministic: shard s writes only slots of its DC range, and
  // the (serial) merge walks them in DC order regardless of shard count.
  // Account rows are num_account_slots_ wide (referenced or active set),
  // never M — the O(N*M) account_partial_ buffer this replaces was the
  // million-account scaling wall.
  mutable std::vector<double> account_scratch_;    // [slots] merged account work
  mutable std::vector<double> account_partial_;    // [N*slots] per-DC account work
  mutable std::vector<double> marginal_scratch_;   // [N] per-DC marginal cost
  mutable std::vector<double> dc_value_;           // [N] per-DC objective part
  mutable std::vector<double> account_term_;       // [slots] fairness grad term
  mutable std::vector<double> type_term_;          // [num_types_eff_]
};

}  // namespace grefar

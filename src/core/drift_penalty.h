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
// any first-order solver can run on it.
//
// Column list — DESIGN.md §12. The program is defined over a list of A
// job-type columns, ascending: variables are flattened as i * A + a, and
// column a stands for job type columns()[a]. A type with nothing queued
// anywhere has queue value 0 and (with clamp_to_queue) upper bound 0, so no
// solver can put work on it; reset() therefore takes the observation's
// active types as the list when the hint is valid and the clamp is on, and
// all J types otherwise. At million-type scale A << J, so per-slot cost is
// O(N*A) instead of O(N*J), and — by the exact-zero kernel argument in
// sim/fairness.h plus the dead-column gradient rule below — the solve is
// *bit-identical* to the all-J solve scattered back to full coordinates.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/problem_view.h"
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
};

/// The per-slot convex program in work units u (flattened N*A vector over
/// the column list — see the header comment).
///
/// Hot-path note: a long-lived scheduler constructs one PerSlotProblem on
/// its first slot and calls reset() on every later slot — curves, polytope,
/// and all internal vectors are then updated in place, so steady-state
/// problem construction is allocation-free (column buffers reach their
/// high-water size after a few slots and are reused thereafter). An
/// instance is single-threaded (concurrent runs each own their problem).
class PerSlotProblem final : public ConvexObjective {
 public:
  /// Bakes the config-derived state but performs no initial reset — the
  /// caller must reset() before any other use. A scheduler that builds its
  /// problem on the first slot thus pays for and counts exactly one reset
  /// there, the same as every later slot.
  PerSlotProblem(const ClusterConfig& config, const GreFarParams& params);

  /// Re-targets the problem at a new observation of the *same* cluster and
  /// params, reusing all internal storage. `obs` must outlive the problem's
  /// next use (the problem keeps a pointer, not a copy). The per-column
  /// arrays are gathered again only when the column list changed; over all
  /// J types they are the static arrays themselves.
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

  /// Ascending job type ids the current problem is defined over (column a
  /// is job type columns()[a]): the observation's active types when its
  /// hint is valid and params.clamp_to_queue is set (without the clamp, an
  /// empty type keeps ub = h_max * d_j and cannot be dropped), else all J.
  const std::vector<std::uint32_t>& columns() const { return cols().types; }

  /// A, the stride of num_vars() and every flattened array.
  std::size_t num_columns() const { return cols().types.size(); }

  std::size_t num_vars() const { return num_dcs_ * num_columns(); }
  /// Flat index of (DC i, column a), a < num_columns().
  std::size_t index(DataCenterId i, std::size_t a) const { return i * num_columns() + a; }

  /// Feasible region: box [0, ub] with one capacity group per data center.
  const CappedBoxPolytope& polytope() const { return polytope_; }

  /// Energy curves per data center for this slot's availability.
  const EnergyCostCurve& curve(DataCenterId i) const { return curves_[i]; }

  /// Total compute resource R(t) (work units across all DCs).
  double total_resource() const { return total_resource_; }

  /// Flat structure-of-arrays borrow of the current slot's problem data
  /// (see problem_view.h). Invalidated by the next reset(). The per-type
  /// arrays are per column and view().type_ids maps columns to job types.
  PerSlotView view() const;

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

 private:
  /// Per-column arrays. all_ covers the J types (built once); subset_ is
  /// gathered from it for a shorter column list.
  struct ColumnArrays {
    std::vector<std::uint32_t> types;         // [A] ascending job type ids
    std::vector<double> work;                 // [A] d_j
    std::vector<double> inv_work;             // [A] 1/d_j
    std::vector<std::uint32_t> account_of;    // [A] global account ids
    std::vector<double> max_rate;             // [A] work one job absorbs per slot
    std::vector<std::uint8_t> rate_capped;    // [A] 1 iff max_rate is finite
    std::vector<std::uint8_t> eligible;       // [N*A] 1 iff i in D_j
    std::vector<std::uint32_t> accounts;      // ascending ids the columns reference
    std::vector<std::uint32_t> account_slot;  // [A] -> index into accounts
  };

  const ColumnArrays& cols() const { return all_columns_ ? all_ : subset_; }

  /// Points cols() at the column list `obs` selects, gathering subset_
  /// only when that list differs from the one it holds.
  void select_columns(const SlotObservation& obs);

  /// Fills accounts / account_slot from account_of.
  static void index_accounts(ColumnArrays& c);

  /// Shared first half of value()/gradient(): per-DC row reductions of x
  /// (work, queue-value dot, account partials) plus the per-DC energy term,
  /// written to the dc_*_ / account_partial_ slots, which the callers merge
  /// in DC order.
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
  std::vector<EnergyCostCurve> curves_;
  std::vector<double> smoothing_band_;  // per-DC kink-blend half-width (work)
  std::vector<double> energy_band_;     // per-DC tariff-blend half-width (energy)
  double total_resource_ = 0.0;
  FairnessFunction fairness_;
  CappedBoxPolytope polytope_;
  std::vector<double> queue_value_;  // q/d, flattened [N * A]

  // Account compaction (DESIGN.md §12). The fairness accumulators never
  // span all M accounts, only ColumnArrays::accounts: the accounts the
  // columns reference. Accounts outside it provably accumulate exactly 0.0
  // work, and fairness_kernel::term(0, g, inv) is an exact float zero, so
  // the compacted sums are bitwise equal to the full-M sum.
  ColumnArrays all_;      // static, built at construction
  ColumnArrays subset_;   // gathered when a shorter column list changes
  bool all_columns_ = true;  // cols() is all_
  std::vector<double> speed_;            // [K]
  std::vector<double> busy_power_;       // [K]
  std::vector<double> energy_per_work_;  // [K]
  bool any_rate_cap_ = false;            // any finite JobType::max_rate?

  // Per-slot SoA arrays refreshed by reset().
  std::vector<double> dc_capacity_;      // [N] curve capacity per DC
  /// Dead-column mask for the fairness gradient (built when beta > 0):
  /// active_col_[a] == 0 iff ub_{i,a} == 0 for every DC i. Such a column's
  /// fairness term is zeroed in the gradient — the column cannot move and
  /// its account received no work through it. That, and the projection
  /// skipping ub == 0 entries outright (DESIGN.md §11), keeps a solve over
  /// a shorter column list bit-identical to the all-J one.
  mutable std::vector<std::uint8_t> active_col_;  // [A]

  // Reused scratch: value()/gradient() run every solver iteration and must
  // not touch the heap. Each row pass writes per-DC slots, and the merge
  // walks them in DC order, so a row's sums never depend on how the rows
  // are blocked (accumulate_block). Account rows are S = |cols().accounts|
  // wide, never M — the O(N*M)
  // account_partial_ buffer this replaces was the million-account scaling
  // wall.
  mutable std::vector<double> account_scratch_;    // [S] merged account work
  mutable std::vector<double> account_partial_;    // [N*S] per-DC account work
  mutable std::vector<double> marginal_scratch_;   // [N] per-DC marginal cost
  mutable std::vector<double> dc_value_;           // [N] per-DC objective part
  mutable std::vector<double> account_term_;       // [S] fairness grad term
  mutable std::vector<double> type_term_;          // [A]
};

}  // namespace grefar

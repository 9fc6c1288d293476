// GreFarScheduler — Algorithm 1 of the paper.
//
// Each slot, observe the data-center state x(t) and queue state Theta(t) and
// choose the action minimizing the drift-plus-penalty expression (14):
//
//   * Routing r_{i,j}: linear with coefficient (q_{i,j} - Q_j). Jobs are
//     routed (up to r_max per destination) to eligible data centers whose
//     local queue is shorter than the central queue, shortest first.
//   * Processing h_{i,j} / servers b_{i,k}: the convex program of
//     drift_penalty.h, solved by the exact greedy when beta = 0 and by
//     spectral projected gradient otherwise (per_slot_solvers.h). With
//     beta = 0 work is processed exactly when the
//     queue pressure q_{i,j}/d_j exceeds V * phi_i * p_k/s_k — i.e. when
//     electricity is cheap relative to how long jobs have waited. Larger V
//     therefore trades delay for energy cost, which is Theorem 1's knob.
//
// GreFar needs no statistics of arrivals, prices or availability: the queue
// lengths alone summarize the past.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/drift_penalty.h"
#include "core/per_slot_solvers.h"
#include "sim/scheduler.h"
#include "util/annotations.h"

namespace grefar {

class GreFarScheduler final : public Scheduler {
 public:
  GreFarScheduler(ClusterConfig config, GreFarParams params);
  /// Shared-config overload: a million-account ClusterConfig weighs ~10^2
  /// MB, so the scheduler sharing the engine's immutable instance instead of
  /// copying it is part of the DESIGN.md §12 memory budget.
  GreFarScheduler(std::shared_ptr<const ClusterConfig> config, GreFarParams params);

  /// Rebinds a long-lived scheduler to a new sweep leg without
  /// reconstructing it (DESIGN.md §16). Validates params like the
  /// constructor, rebinds the cached per-slot problem's parameters, and
  /// drops all cross-slot state — the SPG warm start, the action-matrix
  /// bookkeeping and the content-keyed piece/demand caches — so the next
  /// decide produces bitwise the same actions, and counts the same cache
  /// events, as a fresh scheduler's.
  void begin_run(const GreFarParams& params);

  SlotAction decide(const SlotObservation& obs) override;
  /// The hot path: after the first slot every per-slot structure (the
  /// convex problem, solver scratch, routing work lists, action matrices)
  /// is reused in place, so steady-state decisions are allocation-free.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void decide_into(const SlotObservation& obs, SlotAction& out) override;
  /// Traced variant: annotates `scope` (when non-null) with the slot's
  /// routing tie-group splits and the drift-weight sign census. It decides
  /// on the same column list, so its actions are bitwise the untraced ones.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void decide_into(const SlotObservation& obs, SlotAction& out,
                   TraceScope* scope) override;
  std::string name() const override;

  const GreFarParams& params() const { return params_; }

 private:
  /// Splits `jobs` whole jobs across tie_members_ (capacity-weighted
  /// largest-remainder apportionment, each member capped at floor(r_max)),
  /// writing action.route(member, j). Returns the total actually assigned.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  double split_tie_group(std::size_t j, double jobs, SlotAction& action);

  std::shared_ptr<const ClusterConfig> config_;  // immutable, shareable
  GreFarParams params_;

  // Per-slot scratch, constructed lazily on the first decide and reused
  // thereafter. A scheduler instance is single-threaded (one simulation).
  std::optional<PerSlotProblem> problem_;
  PerSlotScratch solver_scratch_;
  SlotObservation routed_obs_;           // obs with routing applied to dc_queue
  std::vector<double> u_;                // per-slot solver result (work units)

  // Column bookkeeping (DESIGN.md §12). A slot works over a column list:
  // the observation's active types when its hint is valid and the queue
  // clamp is on, else all_types_. Every per-slot fill (action clearing,
  // routing sweep, routed-queue rebuild, scatter) then costs O(N*A), and
  // only prev_cols_ can hold non-zeros from the previous slot, so clearing
  // those restores the all-zero invariant. The cached data pointers detect
  // a swapped/reallocated action matrix, whose invariant is unknown: then
  // all J columns are cleared.
  std::vector<std::uint32_t> all_types_;    // 0 .. J-1
  std::vector<std::uint32_t> prev_cols_;    // columns written last slot
  const double* route_data_ = nullptr;      // matrices prev_cols_
  const double* proc_data_ = nullptr;       //   describes
  bool routed_obs_valid_ = false;           // routed_obs_ zero off prev_cols_
  std::size_t eligible_pairs_ = 0;          // sum_j |D_j|, for the census
  std::vector<double> dc_capacity_;      // sum_k n_{i,k} s_k, per DC per slot
  std::vector<std::size_t> beneficial_;  // routing candidates for one job type
  std::vector<std::size_t> tie_members_; // one tie group's capacity>0 members
  std::vector<double> tie_quota_;        // proportional quota per member
  std::vector<double> tie_base_;         // integer part of the quota
  std::vector<unsigned char> tie_pinned_;  // member pinned at r_max
  std::vector<std::size_t> tie_rank_;    // remainder ranking scratch
};

}  // namespace grefar

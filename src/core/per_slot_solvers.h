// Solvers for the per-slot GreFar problem (see drift_penalty.h).
//
// * solve_per_slot_greedy — exact for beta = 0. The problem separates per
//   data center into matching the highest queue-value-per-work job demand
//   against the cheapest energy-per-work server segments; both lists sorted,
//   allocate while the marginal value exceeds the marginal cost. This is
//   also the linear minimization oracle Frank-Wolfe calls implicitly.
// * solve_per_slot_frank_wolfe / solve_per_slot_pgd — handle beta > 0
//   (quadratic fairness coupling across data centers).
// * build_per_slot_lp — the equivalent LP for beta = 0, used to cross-check
//   the greedy against the simplex solver in tests and ablations.
#pragma once

#include "core/drift_penalty.h"
#include "solver/frank_wolfe.h"
#include "solver/lp.h"
#include "solver/projected_gradient.h"
#include "util/annotations.h"

namespace grefar {

/// Which engine GreFar uses to solve eq. (14) each slot.
enum class PerSlotSolver {
  kGreedy,      // exact for beta == 0; ignores the fairness term
  kFrankWolfe,  // handles beta >= 0
  kProjectedGradient,  // handles beta >= 0
  kLp,          // simplex on the beta == 0 LP (cross-check / ablation)
};

std::string to_string(PerSlotSolver solver);

/// Reusable scratch for the per-slot solvers. A long-lived scheduler keeps
/// one instance and passes it to every solve: both sides of the greedy's
/// two-list merge are cached per data center and only rebuilt when their
/// inputs actually move (see DESIGN.md §11):
///
///   * Pieces store `base_cost = tariff_rate * energy_per_work` with the
///     (positive) V * phi price factor divided out, so a DC's piece list is
///     rebuilt only when its *availability row* changes — price moves
///     rescale every piece equally and cannot reorder them.
///   * Demands (job types with positive queue value, sorted descending) are
///     keyed on the DC's (queue-value, upper-bound) rows; a prices-only
///     slot leaves both untouched and reuses the sorted order outright.
///
/// An instance is tied to one cluster config (server types + tariffs). It is
/// single-threaded from the caller's side; with an intra-slot executor the
/// greedy fill shards across DCs internally, which is why the fill working
/// copies are per *shard* (each cache entry stays immutable during a fill).
struct PerSlotSolverScratch {
  struct Piece {
    double capacity;   // work units
    double base_cost;  // tariff_rate * energy_per_work (x V*phi at use site)
  };
  struct Demand {
    std::size_t j;
    double value;      // q_{i,j} / d_j
    double remaining;  // ub on work units
  };
  std::vector<std::vector<Piece>> pieces;               // [dc], sorted by cost
  std::vector<std::vector<std::int64_t>> cached_avail;  // [dc] row pieces were built for
  std::vector<std::vector<Demand>> demand_cache;  // [dc] sorted desc by value
  std::vector<std::vector<double>> cached_qv;     // [dc] queue-value row key
  std::vector<std::vector<double>> cached_ub;     // [dc] upper-bound row key
  /// Column-identity key for the demand caches: in compact mode column a of
  /// the (qv, ub) rows stands for job type cache_types[a], so byte-equal
  /// rows under a *different* active-type list must still miss. A mode or
  /// type-list change clears every per-DC key.
  bool cache_compact = false;
  std::vector<std::uint32_t> cache_types;
  std::vector<std::vector<Demand>> fill_demands;  // [shard] fill working copy
  /// Per-shard staging slots for the cache-hit counters: pool workers have
  /// their own (usually inactive) thread-local registries, so the sharded
  /// fill records here and the calling thread flushes the totals once per
  /// solve — counter values stay identical at any intra_slot_jobs.
  std::vector<std::uint64_t> count_stage;
  std::vector<double> warm;                             // FW/PGD warm start
  PgdWorkspace pgd;                                     // PGD iterate buffers
  /// Previous slot's FW/PGD solution; with params.warm_start_across_slots
  /// the next solve starts here (clamped onto the current bound box and, in
  /// compact mode, remapped across active-type lists) instead of re-running
  /// the greedy. prev_valid flags that a solution was saved at all — an
  /// empty prev with prev_valid set is a real zero-variable compact
  /// solution (idle slot), not "no history". prev_compact / prev_types
  /// record the coordinate system the solution was saved under (dense
  /// full-space when prev_compact is false).
  std::vector<double> prev;
  bool prev_valid = false;
  bool prev_compact = false;
  std::vector<std::uint32_t> prev_types;
  std::vector<std::uint32_t> warm_map;  // remap scratch (active -> prev col)
  /// Opt-in simplex warm starts for the kLp path (cross-slot / cross-leg
  /// basis reuse, GreFarScheduler::begin_run keep_warm mode). Off by
  /// default: a warm phase-2 re-entry converges to the same optimum but not
  /// bitwise the same vertex, so the cold path stays the reference and every
  /// bitwise-equality contract runs with this flag clear.
  bool lp_warm_enabled = false;
  SimplexBasis lp_basis;
  bool lp_basis_valid = false;
};

/// Exact greedy for beta = 0 (the fairness term, if any, is ignored).
/// Returns the flattened u vector (work units per (i,j)).
std::vector<double> solve_per_slot_greedy(const PerSlotProblem& problem);

/// Allocation-free greedy: writes into `u`, reuses `scratch` (pass nullptr
/// to use transient local scratch).
GREFAR_HOT_PATH GREFAR_DETERMINISTIC
void solve_per_slot_greedy_into(const PerSlotProblem& problem, std::vector<double>& u,
                                PerSlotSolverScratch* scratch);

/// Frank-Wolfe on the full convex objective. Warm-started from the greedy.
std::vector<double> solve_per_slot_frank_wolfe(const PerSlotProblem& problem,
                                               const FrankWolfeOptions& options = {});

/// Projected gradient on the full convex objective. Warm-started likewise.
std::vector<double> solve_per_slot_pgd(const PerSlotProblem& problem,
                                       const PgdOptions& options = {});

/// Builds the beta = 0 LP over variables [u_{i,j} | w_{i,k}] where w_{i,k}
/// is work served by server type k in DC i:
///   min  sum_{i,k} V*phi_i*(p_k/s_k) w_{i,k} - sum_{i,j} (q_{i,j}/d_j) u_{i,j}
///   s.t. sum_j u_{i,j} <= sum_k w_{i,k};  w_{i,k} <= n_{i,k} s_k;  u <= ub.
LinearProgram build_per_slot_lp(const PerSlotProblem& problem);

/// Solves via the LP above and extracts the u block.
std::vector<double> solve_per_slot_lp(const PerSlotProblem& problem);

/// Dispatches on `solver`.
std::vector<double> solve_per_slot(const PerSlotProblem& problem, PerSlotSolver solver);

/// Dispatching solve into a caller-owned result buffer with reusable
/// scratch — the hot path GreFarScheduler uses every slot.
GREFAR_HOT_PATH GREFAR_DETERMINISTIC
void solve_per_slot_into(const PerSlotProblem& problem, PerSlotSolver solver,
                         std::vector<double>& u, PerSlotSolverScratch* scratch);

}  // namespace grefar

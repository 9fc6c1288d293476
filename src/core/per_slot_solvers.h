// GreFar's per-slot solve (see drift_penalty.h).
//
// * solve_per_slot_greedy — exact for beta = 0. The problem separates per
//   data center into matching the highest queue-value-per-work job demand
//   against the cheapest energy-per-work server segments; both lists sorted,
//   allocate while the marginal value exceeds the marginal cost.
// * solve_per_slot_into — the solve GreFarScheduler runs every slot: the
//   greedy at beta = 0, and spectral projected gradient (solver/
//   projected_gradient.h) at beta > 0, where the fairness term couples the
//   data centers. The SPG solve starts from the previous slot's solution.
//
// The per-slot LP, Frank-Wolfe and monotone-PGD solves of the same problem
// are oracles for these two and live in src/check (per_slot_oracles.h,
// pgd_oracle.h).
#pragma once

#include "core/drift_penalty.h"
#include "solver/projected_gradient.h"
#include "util/annotations.h"

namespace grefar {

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
/// An instance is tied to one cluster config (server types + tariffs) and is
/// single-threaded.
struct PerSlotScratch {
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
  /// Column list the demand caches were keyed under: column a of the
  /// (qv, ub) rows stands for job type cache_types[a], so byte-equal rows
  /// under a *different* list must still miss. A list change clears every
  /// per-DC key.
  std::vector<std::uint32_t> cache_types;
  std::vector<Demand> fill_demands;  // fill working copy of one DC's demands
  std::vector<double> warm;          // SPG start point
  PgdWorkspace pgd;                  // SPG iterate buffers
  /// Previous slot's SPG solution over the column list prev_types; the
  /// next solve starts here (remapped onto the current list and clamped
  /// onto the current bound box) instead of at the greedy point.
  /// prev_valid flags that a solution was saved at all — an empty prev
  /// with prev_valid set is a real zero-column solution (idle slot), not
  /// "no history".
  std::vector<double> prev;
  bool prev_valid = false;
  std::vector<std::uint32_t> prev_types;
  std::vector<std::uint32_t> warm_map;  // remap scratch (column -> prev col)
};

/// Exact greedy for beta = 0 (the fairness term, if any, is ignored).
/// Returns the flattened u vector (work units per (i,j)).
std::vector<double> solve_per_slot_greedy(const PerSlotProblem& problem);

/// Allocation-free greedy: writes into `u`, reuses `scratch` (pass nullptr
/// to use transient local scratch).
GREFAR_HOT_PATH GREFAR_DETERMINISTIC
void solve_per_slot_greedy_into(const PerSlotProblem& problem, std::vector<double>& u,
                                PerSlotScratch* scratch);

/// GreFar's per-slot solve into a caller-owned buffer: the greedy when
/// params.beta == 0, otherwise SPG started from the previous slot's
/// solution in `scratch` (the greedy point when there is none). Records
/// the SPG solution in `scratch` for the next slot.
GREFAR_HOT_PATH GREFAR_DETERMINISTIC
void solve_per_slot_into(const PerSlotProblem& problem, std::vector<double>& u,
                         PerSlotScratch& scratch);

}  // namespace grefar

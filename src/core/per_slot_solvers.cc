#include "core/per_slot_solvers.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/counters.h"
#include "util/check.h"

namespace grefar {

namespace {

/// Rebuilds the sorted energy-cost piece list for DC `i` if (and only if)
/// its availability row changed since the pieces were last built. Pieces
/// store the price-free base cost, so price movement never invalidates.
/// Returns true when the list was actually rebuilt.
bool refresh_pieces(const PerSlotProblem& problem, const PerSlotView& v,
                    std::size_t i, PerSlotScratch& scratch) {
  const auto& config = problem.config();
  const std::size_t K = v.num_servers;
  const std::int64_t* avail_row = v.availability + i * K;
  auto& cached = scratch.cached_avail[i];
  if (cached.size() == K &&
      std::memcmp(cached.data(), avail_row, K * sizeof(std::int64_t)) == 0) {
    return false;
  }
  cached.assign(avail_row, avail_row + K);

  // Filling cheapest energy-per-work servers first minimizes E(W), hence
  // also tariff(E(W)) (tariff increasing); subdividing each curve segment at
  // the tariff's tier boundaries yields pieces whose unit cost —
  // V*phi * rate(E) * energy_per_work — is non-decreasing in fill order, so
  // the two-list greedy stays exact. V*phi > 0 scales all of a DC's pieces
  // equally, which is why the cache can store price-free base costs.
  const TieredTariff& tariff = config.tariff(i);
  auto& pieces = scratch.pieces[i];
  pieces.clear();
  double cum_energy = 0.0;
  for (const auto& seg : problem.curve(i).segments()) {
    double seg_work_left = seg.capacity;
    while (seg_work_left > 1e-12) {
      double rate = tariff.marginal(cum_energy);
      // Work until the next tier boundary (or the segment end).
      double work_to_boundary = seg_work_left;
      for (const auto& tier : tariff.tiers()) {
        if (cum_energy < tier.upto) {
          double energy_left = tier.upto - cum_energy;
          if (std::isfinite(energy_left)) {
            work_to_boundary =
                std::min(work_to_boundary, energy_left / seg.energy_per_work);
          }
          break;
        }
      }
      // Guard against zero-progress when sitting exactly on a boundary.
      work_to_boundary = std::max(work_to_boundary, 1e-12);
      work_to_boundary = std::min(work_to_boundary, seg_work_left);
      pieces.push_back({work_to_boundary, rate * seg.energy_per_work});
      cum_energy += work_to_boundary * seg.energy_per_work;
      seg_work_left -= work_to_boundary;
    }
  }
  return true;
}

/// Writes the x0 for the SPG solve into scratch.warm: the previous slot's
/// solution when one is available, otherwise the greedy point. Steady state
/// allocates nothing — the copy, the remap scratch and the projection all
/// reuse existing capacity.
///
/// The previous solution is remapped by job type id from its column list
/// onto the current one (a newly listed type starts at 0) and clamped onto
/// the current bound box entry-wise (coordinates whose bound collapsed to
/// 0 — a type whose queue drained — start at exactly 0). The clamp is what
/// makes the start independent of the lists: a type missing from a shorter
/// list has no slot, and the all-J list clamps its stale value to the same
/// 0.0.
void prepare_warm_start(const PerSlotProblem& problem, PerSlotScratch& scratch) {
  std::vector<double>& warm = scratch.warm;
  const std::size_t N = problem.config().num_data_centers();
  const std::size_t J_prev = scratch.prev_types.size();
  // prev_valid, not prev.empty(): an idle slot legitimately saves a
  // zero-column solution, and the slot after it must still warm-start (from
  // all zeros) exactly like a run over more columns does.
  if (scratch.prev_valid && scratch.prev.size() == N * J_prev) {
    const std::size_t J_now = problem.num_columns();
    const std::uint32_t* ids = problem.columns().data();
    const std::uint32_t* prev_ids = scratch.prev_types.data();
    const double* ub = problem.polytope().upper_bounds().data();
    const double* prev = scratch.prev.data();
    warm.assign(problem.num_vars(), 0.0);
    if (scratch.prev_types == problem.columns()) {
      // Same list, same coordinates.
      for (std::size_t k = 0; k < warm.size(); ++k) warm[k] = std::clamp(prev[k], 0.0, ub[k]);
    } else {
      // Align the two ascending lists once, then remap rows through the
      // merged index (kNone = newly listed).
      constexpr std::uint32_t kNone = 0xffffffffu;
      scratch.warm_map.assign(J_now, kNone);
      for (std::size_t a = 0, ap = 0; a < J_now && ap < J_prev;) {
        if (prev_ids[ap] < ids[a]) {
          ++ap;
        } else if (prev_ids[ap] > ids[a]) {
          ++a;
        } else {
          scratch.warm_map[a] = static_cast<std::uint32_t>(ap);
          ++a;
          ++ap;
        }
      }
      for (std::size_t i = 0; i < N; ++i) {
        const double* prev_row = prev + i * J_prev;
        const double* ub_row = ub + i * J_now;
        double* warm_row = warm.data() + i * J_now;
        for (std::size_t a = 0; a < J_now; ++a) {
          const std::uint32_t ap = scratch.warm_map[a];
          if (ap != kNone) warm_row[a] = std::clamp(prev_row[ap], 0.0, ub_row[a]);
        }
      }
    }
    obs::count("per_slot.cross_slot_warm_starts");
    return;
  }
  obs::count("per_slot.greedy_starts");
  solve_per_slot_greedy_into(problem, warm, &scratch);
}

/// Records the SPG solution, with its column list, for the next slot's
/// warm start.
void save_solution(const PerSlotProblem& problem, const std::vector<double>& u,
                   PerSlotScratch& scratch) {
  scratch.prev = u;
  scratch.prev_valid = true;
  scratch.prev_types = problem.columns();
}

}  // namespace

std::vector<double> solve_per_slot_greedy(const PerSlotProblem& problem) {
  std::vector<double> u;
  solve_per_slot_greedy_into(problem, u, nullptr);
  return u;
}

void solve_per_slot_greedy_into(const PerSlotProblem& problem, std::vector<double>& u,
                                PerSlotScratch* scratch) {
  const PerSlotView v = problem.view();
  const std::size_t N = v.num_dcs;
  const std::size_t J = v.num_types;
  const double V = problem.params().V;

  // An idle slot can have zero columns: nothing can be processed, and
  // the (qv, ub) demand-cache keys degenerate to empty rows that compare
  // equal to a *cleared* key (size 0 == J), which would serve the previous
  // busy slot's demand list against a zero-variable u. Return the empty
  // action before touching any scratch so the caches keep describing the
  // last nonzero-column slot.
  if (J == 0) {
    u.assign(problem.num_vars(), 0.0);
    return;
  }

  // NOLINTBEGIN(grefar-hot-path-alloc): per-DC scratch rows are sized on the
  // first solve (N is fixed per cluster) and reused in place afterwards.
  PerSlotScratch local;
  PerSlotScratch& ws = scratch ? *scratch : local;
  ws.pieces.resize(N);
  ws.cached_avail.resize(N);
  ws.demand_cache.resize(N);
  ws.cached_qv.resize(N);
  ws.cached_ub.resize(N);
  // NOLINTEND(grefar-hot-path-alloc)

  // Demand caches are keyed on raw (qv, ub) rows, and column a means job
  // type v.type_ids[a], so a changed column list must clear the keys even
  // when the bytes happen to match (same A, same values, different types).
  if (ws.cache_types != problem.columns()) {
    for (auto& key : ws.cached_qv) key.clear();
    ws.cache_types = problem.columns();
  }

  u.assign(problem.num_vars(), 0.0);
  std::uint64_t demand_sorts = 0;
  std::uint64_t demand_reuses = 0;
  std::uint64_t piece_rebuilds = 0;
  std::uint64_t piece_reuses = 0;
  auto& demands = ws.fill_demands;
  for (std::size_t i = 0; i < N; ++i) {
    // Job demands with positive queue value, most valuable first. The
    // sorted list is cached per DC, keyed on the (queue-value, bound)
    // rows: a slot where only prices moved leaves both rows untouched and
    // reuses the order outright (prices rescale every piece of a DC
    // equally, so neither list can reorder — see DESIGN.md §11).
    const double* qv_row = v.queue_value + i * J;
    const double* ub_row = v.upper_bounds + i * J;
    auto& key_qv = ws.cached_qv[i];
    auto& key_ub = ws.cached_ub[i];
    auto& cache = ws.demand_cache[i];
    const bool fresh =
        key_qv.size() == J &&
        std::memcmp(key_qv.data(), qv_row, J * sizeof(double)) == 0 &&
        std::memcmp(key_ub.data(), ub_row, J * sizeof(double)) == 0;
    if (!fresh) {
      key_qv.assign(qv_row, qv_row + J);
      key_ub.assign(ub_row, ub_row + J);
      cache.clear();
      for (std::size_t j = 0; j < J; ++j) {
        if (ub_row[j] > 0.0 && qv_row[j] > 0.0) cache.push_back({j, qv_row[j], ub_row[j]});
      }
      std::sort(cache.begin(), cache.end(),
                [](const PerSlotScratch::Demand& a,
                   const PerSlotScratch::Demand& b) { return a.value > b.value; });
      ++demand_sorts;
    } else {
      ++demand_reuses;
    }
    // The cache entry stays immutable (it must survive the fill for the
    // next slot's key check); the merge consumes a working copy.
    demands.assign(cache.begin(), cache.end());

    // Server pieces, cheapest marginal-cost-per-work first (cached across
    // slots; see refresh_pieces).
    if (refresh_pieces(problem, v, i, ws)) ++piece_rebuilds; else ++piece_reuses;
    const double price_scale = V * v.prices[i];

    double* u_row = u.data() + i * J;
    std::size_t d_idx = 0;
    for (const auto& piece : ws.pieces[i]) {
      double piece_remaining = piece.capacity;
      double unit_cost = price_scale * piece.base_cost;
      while (piece_remaining > 1e-12 && d_idx < demands.size()) {
        PerSlotScratch::Demand& d = demands[d_idx];
        if (d.value <= unit_cost) {
          // Demands are sorted descending and pieces are non-decreasing in
          // cost, so no remaining pair is profitable.
          d_idx = demands.size();
          break;
        }
        double take = std::min(piece_remaining, d.remaining);
        u_row[d.j] += take;
        piece_remaining -= take;
        d.remaining -= take;
        if (d.remaining <= 1e-12) ++d_idx;
      }
      if (d_idx >= demands.size()) break;
    }
  }

  if (demand_sorts != 0) obs::count("per_slot.demand_sorts", demand_sorts);
  if (demand_reuses != 0) obs::count("per_slot.demand_sort_reuses", demand_reuses);
  if (piece_rebuilds != 0) obs::count("per_slot.piece_rebuilds", piece_rebuilds);
  if (piece_reuses != 0) obs::count("per_slot.piece_reuses", piece_reuses);
}

void solve_per_slot_into(const PerSlotProblem& problem, std::vector<double>& u,
                         PerSlotScratch& scratch) {
  if (problem.params().beta == 0.0) {
    solve_per_slot_greedy_into(problem, u, &scratch);
    return;
  }
  prepare_warm_start(problem, scratch);
  minimize_projected_gradient(problem, problem.polytope(), scratch.warm, u, scratch.pgd);
  save_solution(problem, u, scratch);
}

}  // namespace grefar

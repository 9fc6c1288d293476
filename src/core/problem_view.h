// PerSlotView: flat structure-of-arrays snapshot of the per-slot problem.
//
// AoS-ish accessors (`config().job_types[j].eligible(i)`,
// `polytope().upper_bounds()[idx]`) are fine at paper scale, but at 100+ DCs x 64+ job types the per-(i,j)
// call overhead — and especially JobType::eligible()'s linear scan over
// D_j — turns the per-slot rebuild into an O(N^2 J) wall. This view exposes
// every array the hot kernels iterate as a contiguous pointer so solver
// loops are branch-light, stride-1 and autovectorizable.
//
// Layout. The problem is defined over A job-type columns (type_ids). All
// (i, a) arrays are row-major N x A flattened as i * A + a — the same
// `index()` the problem uses everywhere. Per-column arrays have length A,
// per-server-type arrays length K, per-DC arrays length N.
//
// Lifetime. A view is a *borrow*: pointers alias PerSlotProblem internals
// (and the SlotObservation it currently targets) and are invalidated by the
// next reset(). Take the view after reset, use it within the slot, drop it.
// Server constants never change between resets of the same problem; the
// per-column arrays change only with the column list.
#pragma once

#include <cstddef>
#include <cstdint>

namespace grefar {

struct PerSlotView {
  std::size_t num_dcs = 0;       // N
  std::size_t num_types = 0;     // A, the column count (J when all types)
  std::size_t num_servers = 0;   // K
  std::size_t num_accounts = 0;  // M

  /// Column map — DESIGN.md §12: type_ids[a] is the job type column a
  /// stands for (ascending). An idle slot can have A == 0 and a null
  /// pointer, so index it only under a < A.
  const std::uint32_t* type_ids = nullptr;

  // Per-column arrays (rebuilt only when the column list changes).
  const std::uint8_t* eligible = nullptr;   // [N*A] 1 iff i in D_j
  const double* work = nullptr;             // [A] d_j
  const double* inv_work = nullptr;         // [A] 1 / d_j
  const std::uint32_t* account_of = nullptr;  // [A] rho_j
  const double* speed = nullptr;            // [K] s_k
  const double* busy_power = nullptr;       // [K] p_k
  const double* energy_per_work = nullptr;  // [K] p_k / s_k

  // Per-slot arrays (rebuilt by reset(); valid until the next reset).
  const double* prices = nullptr;           // [N] phi_i(t)
  const std::int64_t* availability = nullptr;  // [N*K] n_{i,k}(t), row-major
  const double* queue_value = nullptr;      // [N*A] q_{i,j}/d_j (0 if ineligible)
  const double* upper_bounds = nullptr;     // [N*A] work ub per (i,j)
  const double* dc_capacity = nullptr;      // [N] sum_k n_{i,k} s_k
};

}  // namespace grefar

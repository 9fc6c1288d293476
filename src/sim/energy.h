// EnergyCostCurve: minimum-energy server allocation (paper eq. (2) plus the
// optimal choice of b_{i,k}).
//
// Given the available servers of a data center at one slot, the cheapest way
// to serve W work units is to fill server types in ascending energy-per-work
// p_k/s_k order, using each type fractionally at the margin (servers may run
// a fraction of the slot, so b_{i,k} need not be integral — paper §III-C2).
// The resulting energy-for-work function C(W) is piecewise linear, convex and
// increasing. This single implementation is shared by the simulator (cost
// accounting) and the GreFar objective (the V * phi * C(W) term), so the
// scheduler optimizes exactly what the meter charges.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/server.h"
#include "util/annotations.h"
#include "util/matrix.h"

namespace grefar {

class EnergyCostCurve {
 public:
  /// Builds the curve for one data center from availability row `n` (length
  /// K) and the server-type table.
  EnergyCostCurve(const std::vector<ServerType>& server_types,
                  const std::vector<std::int64_t>& available);

  /// An empty curve (capacity 0); rebuild() before use. Lets per-slot hot
  /// paths keep a persistent curve per DC instead of reconstructing.
  EnergyCostCurve() = default;

  /// Recomputes the curve for a new availability row, reusing the segment
  /// storage (no heap traffic once warmed up).
  void rebuild(const std::vector<ServerType>& server_types,
               const std::vector<std::int64_t>& available);

  /// Pointer-row overload for callers whose availability lives in a flat
  /// row-major matrix (the per-slot problem resets straight from the
  /// observation row, no staging copy). `available` points at `count`
  /// entries; `count` must equal the server-type count.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void rebuild(const std::vector<ServerType>& server_types,
               const std::int64_t* available, std::size_t count);

  /// Total processing capacity: sum_k n_k * s_k (work units this slot).
  double capacity() const { return capacity_; }

  /// Minimum energy to serve `work` units (clamped to capacity).
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  double energy_for_work(double work) const;

  /// Smoothed energy_for_work and its slope: the slope is blended linearly
  /// across a band of half-width `band` (work units) around each
  /// inter-segment kink, making C(W) continuously differentiable.
  /// First-order solvers (Frank-Wolfe, PGD) need this to converge;
  /// |smoothed - exact| <= band * (slope jump) / 4 per kink. The exact curve
  /// remains the one used for cost accounting. At band 0 the slope is the
  /// exact right-derivative (the last segment's slope beyond capacity).
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  double smoothed_energy(double work, double band) const;
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  double smoothed_marginal(double work, double band) const;

  /// One linear piece of C(W): a server type's pooled capacity and slope.
  struct Segment {
    ServerTypeId type;
    double speed;           // s_k
    double capacity;        // work this type can absorb (n_k * s_k)
    double energy_per_work; // p_k / s_k
  };

  /// Pieces in ascending energy_per_work order (types with 0 availability
  /// are omitted).
  const std::vector<Segment>& segments() const { return segments_; }

 private:
  std::vector<Segment> segments_;  // ascending energy_per_work
  double capacity_ = 0.0;
};

}  // namespace grefar

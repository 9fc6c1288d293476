// CappedBoxPolytope: the feasible region of the per-slot GreFar problem,
//
//   { x : 0 <= x_j <= ub_j,   sum_{j in group g} x_j <= cap_g  for all g }
//
// where the groups are disjoint (one group per data center, one variable per
// job type). Provides the two oracles first-order methods need:
//   * Euclidean projection (for projected gradient descent), and
//   * a linear minimization oracle (for Frank-Wolfe) — a fractional greedy.
#pragma once

#include <cstddef>
#include <vector>

#include "util/annotations.h"

namespace grefar {

class CappedBoxPolytope {
 public:
  /// `ub[j]` is the per-variable upper bound (>= 0; may be +infinity).
  explicit CappedBoxPolytope(std::vector<double> ub);

  /// Declares a group over distinct variable indices with sum cap >= 0.
  /// Groups must be disjoint; indices not in any group are box-only.
  void add_group(std::vector<std::size_t> indices, double cap);

  /// In-place re-shape for callers whose dimension changes per slot (the
  /// compact active-type problem): the polytope becomes `n_groups`
  /// contiguous groups of `group_size` variables each (group g owning
  /// [g*group_size, (g+1)*group_size)), with every bound and cap reset to 0.
  /// The caller then rewrites bounds via mutable_upper_bounds() and caps via
  /// set_group_cap(). Reuses all internal storage; no allocation once the
  /// high-water dimension has been reached.
  void rebuild_contiguous(std::size_t n_groups, std::size_t group_size);

  std::size_t dim() const { return ub_.size(); }
  const std::vector<double>& upper_bounds() const { return ub_; }
  std::size_t num_groups() const { return groups_.size(); }

  /// In-place updates for callers that rebuild the same-shaped polytope
  /// every slot (the per-slot GreFar problem): bounds and caps change with
  /// the observation, the group structure does not.
  void set_upper_bound(std::size_t j, double ub);
  void set_group_cap(std::size_t g, double cap);

  /// Mutable flat bound array for callers that rewrite *every* bound each
  /// slot (the per-slot problem's fused reset). The caller is responsible
  /// for keeping entries >= 0; set_upper_bound() remains the checked path
  /// for one-off edits.
  double* mutable_upper_bounds() { return ub_.data(); }

  /// True if x satisfies all bounds and caps within `tol`.
  bool contains(const std::vector<double>& x, double tol = 1e-9) const;

  /// Euclidean projection of y onto the polytope. Decomposes per group:
  /// clamp to the box, and when a cap binds, solve sum(clamp(y - lambda,
  /// 0, ub)) = cap for the Lagrange multiplier exactly, by a sweep over the
  /// sorted breakpoints of that piecewise-linear sum (DESIGN.md §11).
  std::vector<double> project(const std::vector<double>& y) const;

  /// Allocation-free projection into a caller-owned buffer (resized once;
  /// first-order solvers call this every iteration). `out` must not alias y.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void project_into(const std::vector<double>& y, std::vector<double>& out) const;

  /// Linear minimization oracle: argmin_{x in polytope} c . x.
  /// Within each group, fills variables by ascending (most negative) cost
  /// until the cap binds; variables with c >= 0 stay at 0.
  std::vector<double> minimize_linear(const std::vector<double>& c) const;

  /// Allocation-free LMO into a caller-owned buffer.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void minimize_linear_into(const std::vector<double>& c,
                            std::vector<double>& out) const;

 private:
  struct Group {
    std::vector<std::size_t> indices;
    double cap;
    // Detected at add_group: when the indices are the ascending run
    // [begin, end) — true for every per-slot problem group, where DC i owns
    // variables i*J .. i*J+J-1 — the oracles take stride-1 fast paths on
    // raw pointers instead of chasing the indices indirection.
    std::size_t begin = 0;
    std::size_t end = 0;
    bool contiguous = false;
  };

  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void project_group(const Group& g, std::vector<double>& x) const;

  /// Projects the R contiguous groups groups_[g0 .. g0+R), all of length n:
  /// one interleaved pass sums the R box clamps (R independent chains, each
  /// in index order), then each group finishes from its own sum. Bitwise
  /// equal to project_group on each group in turn.
  template <std::size_t R>
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC void project_run(std::size_t g0, std::size_t n,
                                                        double* x) const;

  /// The one projection kernel: projects the `n` values at `x` (bounds
  /// `ub`) onto {0 <= x <= ub, sum(x) <= cap} in place. Index-list groups
  /// gather into scratch and call it too. Computes sum0, the sum of the box
  /// clamps, and hands over to project_span_from.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void project_span(double* x, const double* ub, std::size_t n, double cap) const;

  /// The rest of project_span, given sum0 = sum_k clamp(x_k, 0, ub_k) summed
  /// in index order.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void project_span_from(double* x, const double* ub, std::size_t n, double cap,
                         double sum0) const;

  std::vector<double> ub_;
  std::vector<Group> groups_;
  std::vector<bool> grouped_;  // membership marker for disjointness checks
  std::size_t num_grouped_ = 0;  // variables in some group (set in grouped_)

  // Scratch reused by the oracles (hot path: every solver iteration). Makes
  // a polytope instance single-threaded, like the rest of the repo's
  // lazily-caching objects; concurrent runs each own their instances.
  mutable std::vector<std::size_t> lmo_order_; // minimize_linear sort order
  mutable std::vector<double> leaves_zero_;  // project_span breakpoints y_k
  mutable std::vector<double> leaves_ub_;    // ... and y_k - ub_k
  mutable std::vector<double> gather_x_;     // index-list group values
  mutable std::vector<double> gather_ub_;    // index-list group bounds
};

}  // namespace grefar

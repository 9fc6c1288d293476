#include "solver/capped_box.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "util/check.h"

namespace grefar {

namespace {

/// Sorts bare values descending. Insertion sort wins on the short lists
/// most binding groups produce.
void sort_descending(std::vector<double>& v) {
  constexpr std::size_t kInsertionSortMax = 24;
  if (v.size() > kInsertionSortMax) {
    std::sort(v.begin(), v.end(), std::greater<>());
    return;
  }
  for (std::size_t i = 1; i < v.size(); ++i) {
    const double key = v[i];
    std::size_t h = i;
    for (; h > 0 && key > v[h - 1]; --h) v[h] = v[h - 1];
    v[h] = key;
  }
}

}  // namespace

CappedBoxPolytope::CappedBoxPolytope(std::vector<double> ub)
    : ub_(std::move(ub)), grouped_(ub_.size(), false) {
  for (double u : ub_) GREFAR_CHECK_MSG(u >= 0.0, "upper bound must be >= 0");
}

void CappedBoxPolytope::add_group(std::vector<std::size_t> indices, double cap) {
  GREFAR_CHECK_MSG(cap >= 0.0, "group cap must be >= 0");
  for (std::size_t j : indices) {
    GREFAR_CHECK(j < ub_.size());
    GREFAR_CHECK_MSG(!grouped_[j], "variable " << j << " already in a group");
    grouped_[j] = true;
    ++num_grouped_;
  }
  Group g;
  g.cap = cap;
  g.contiguous = !indices.empty();
  for (std::size_t k = 0; k + 1 < indices.size() && g.contiguous; ++k) {
    g.contiguous = indices[k + 1] == indices[k] + 1;
  }
  if (g.contiguous) {
    g.begin = indices.front();
    g.end = indices.back() + 1;
  }
  g.indices = std::move(indices);
  groups_.push_back(std::move(g));
}

void CappedBoxPolytope::rebuild_contiguous(std::size_t n_groups,
                                           std::size_t group_size) {
  const std::size_t n = n_groups * group_size;
  ub_.assign(n, 0.0);
  grouped_.assign(n, true);
  num_grouped_ = n;
  groups_.resize(n_groups);
  for (std::size_t g = 0; g < n_groups; ++g) {
    Group& grp = groups_[g];
    grp.indices.clear();  // contiguous oracles never touch the index list
    grp.cap = 0.0;
    grp.begin = g * group_size;
    grp.end = (g + 1) * group_size;
    grp.contiguous = true;
  }
}

void CappedBoxPolytope::set_upper_bound(std::size_t j, double ub) {
  GREFAR_CHECK(j < ub_.size());
  GREFAR_CHECK_MSG(ub >= 0.0, "upper bound must be >= 0");
  ub_[j] = ub;
}

void CappedBoxPolytope::set_group_cap(std::size_t g, double cap) {
  GREFAR_CHECK(g < groups_.size());
  GREFAR_CHECK_MSG(cap >= 0.0, "group cap must be >= 0");
  groups_[g].cap = cap;
}

bool CappedBoxPolytope::contains(const std::vector<double>& x, double tol) const {
  GREFAR_CHECK(x.size() == ub_.size());
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j] < -tol || x[j] > ub_[j] + tol) return false;
  }
  for (const auto& g : groups_) {
    double sum = 0.0;
    if (g.contiguous) {
      for (std::size_t j = g.begin; j < g.end; ++j) sum += x[j];
    } else {
      for (std::size_t j : g.indices) sum += x[j];
    }
    if (sum > g.cap + tol) return false;
  }
  return true;
}

void CappedBoxPolytope::project_group(const Group& g, std::vector<double>& x) const {
  // The group's x entries still hold the *original* y values (project_into
  // clamps only ungrouped variables), so the kernel projects straight off x.
  if (g.contiguous) {
    project_span(x.data() + g.begin, ub_.data() + g.begin, g.end - g.begin, g.cap);
    return;
  }
  // Index-list group: gather in list order, project, scatter back. A group
  // whose indices ascend thus projects bitwise like the same values laid out
  // contiguously. Amortized: the gather buffers keep their high-water size.
  std::vector<double>& xs = gather_x_;
  std::vector<double>& ub = gather_ub_;
  xs.clear();
  ub.clear();
  for (std::size_t j : g.indices) {
    xs.push_back(x[j]);    // NOLINT(grefar-hot-path-alloc)
    ub.push_back(ub_[j]);  // NOLINT(grefar-hot-path-alloc)
  }
  project_span(xs.data(), ub.data(), xs.size(), g.cap);
  for (std::size_t k = 0; k < g.indices.size(); ++k) x[g.indices[k]] = xs[k];
}

void CappedBoxPolytope::project_span(double* x, const double* ub, std::size_t n,
                                     double cap) const {
  // KKT: the projection is clamp(y - lambda, 0, ub) for the smallest
  // lambda >= 0 with S(lambda) = sum(clamp(y - lambda, 0, ub)) <= cap. This
  // first pass is stride-1 and branch-free (the compiler vectorizes it), and
  // it is all a group whose cap does not bind pays.
  double sum0 = 0.0;
  for (std::size_t k = 0; k < n; ++k) sum0 += std::clamp(x[k], 0.0, ub[k]);
  project_span_from(x, ub, n, cap, sum0);
}

template <std::size_t R>
void CappedBoxPolytope::project_run(std::size_t g0, std::size_t n, double* x) const {
  double* xs[R];
  const double* us[R];
  double sum0[R];
  for (std::size_t r = 0; r < R; ++r) {
    xs[r] = x + groups_[g0 + r].begin;
    us[r] = ub_.data() + groups_[g0 + r].begin;
    sum0[r] = 0.0;
  }
  // project_span's first pass for R groups at once: each sum0[r] adds the
  // same operands in the same order, only the R chains overlap.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t r = 0; r < R; ++r) sum0[r] += std::clamp(xs[r][k], 0.0, us[r][k]);
  }
  for (std::size_t r = 0; r < R; ++r) {
    project_span_from(xs[r], us[r], n, groups_[g0 + r].cap, sum0[r]);
  }
}

void CappedBoxPolytope::project_span_from(double* x, const double* ub, std::size_t n,
                                          double cap, double sum0) const {
  if (sum0 <= cap) {
    for (std::size_t k = 0; k < n; ++k) x[k] = std::clamp(x[k], 0.0, ub[k]);
    return;
  }

  // S is piecewise linear and non-increasing in lambda. Its breakpoints are
  // where entry k leaves 0 (lambda = y_k) and leaves its bound
  // (lambda = y_k - ub_k). An entry with y_k <= 0 or ub_k == 0 is 0 at every
  // lambda >= 0 and contributes nothing: skipping it explicitly is what keeps
  // a compact problem bitwise equal to its dense twin, whose dead columns
  // have ub == 0. Breakpoints <= 0 lie outside the search range.
  std::vector<double>& leaves_zero = leaves_zero_;
  std::vector<double>& leaves_ub = leaves_ub_;
  leaves_zero.clear();  // amortized, like lmo_order_
  leaves_ub.clear();
  for (std::size_t k = 0; k < n; ++k) {
    if (!(x[k] > 0.0) || !(ub[k] > 0.0)) continue;
    leaves_zero.push_back(x[k]);  // NOLINT(grefar-hot-path-alloc)
    const double below_ub = x[k] - ub[k];
    if (below_ub > 0.0) leaves_ub.push_back(below_ub);  // NOLINT(grefar-hot-path-alloc)
  }
  // The lists hold bare values, so equal keys are indistinguishable: the
  // sorted lists, and the sweep over them, cannot depend on how std::sort
  // arranges ties.
  sort_descending(leaves_zero);
  sort_descending(leaves_ub);

  // Sweep down from lambda = +inf, where S = 0, merging the two lists
  // (leaves-0 first on a tie). Below the breakpoints passed so far,
  // S(lambda) = offset - slope * lambda, slope counting the free entries:
  // passing y_k frees entry k (offset += y_k), and passing y_k - ub_k pins
  // it at ub_k (offset -= y_k - ub_k).
  // Stop at the first breakpoint where S reaches cap: the multiplier then
  // lies in [lo, hi], between it and the breakpoint before.
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();
  double offset = 0.0;
  double slope = 0.0;
  for (std::size_t iz = 0, iu = 0; iz < leaves_zero.size() || iu < leaves_ub.size();) {
    const bool frees = iu == leaves_ub.size() ||
                       (iz < leaves_zero.size() && leaves_zero[iz] >= leaves_ub[iu]);
    const double b = frees ? leaves_zero[iz++] : leaves_ub[iu++];
    if (offset - slope * b >= cap) {
      lo = b;
      break;
    }
    hi = b;
    offset += frees ? b : -b;
    slope += frees ? 1.0 : -1.0;
  }

  // No entry changes state inside [lo, hi], so S(lambda) = cap solves in
  // closed form there. Clamping to the segment absorbs rounding; with no
  // free entry S is flat and any lambda in the segment gives the same x.
  const double lambda = slope > 0.0 ? std::clamp((offset - cap) / slope, lo, hi) : lo;
  for (std::size_t k = 0; k < n; ++k) x[k] = std::clamp(x[k] - lambda, 0.0, ub[k]);
}

std::vector<double> CappedBoxPolytope::project(const std::vector<double>& y) const {
  std::vector<double> x;
  project_into(y, x);
  return x;
}

void CappedBoxPolytope::project_into(const std::vector<double>& y,
                                     std::vector<double>& out) const {
  GREFAR_CHECK(y.size() == ub_.size());
  GREFAR_CHECK_MSG(&y != &out, "project_into aliasing y and out");
  out.assign(y.begin(), y.end());
  // Box-only variables. Every per-slot variable is grouped, so the per-slot
  // problem skips this scan.
  if (num_grouped_ < out.size()) {
    for (std::size_t j = 0; j < out.size(); ++j) {
      if (!grouped_[j]) out[j] = std::clamp(out[j], 0.0, ub_[j]);
    }
  }
  // Runs of up to four contiguous groups of equal length (in the per-slot
  // problem every data center's group holds J variables) share one
  // interleaved clamp-sum pass; any other group takes the per-group path.
  constexpr std::size_t kRun = 4;
  for (std::size_t g = 0; g < groups_.size();) {
    const Group& grp = groups_[g];
    const std::size_t len = grp.end - grp.begin;
    std::size_t r = 1;
    while (grp.contiguous && r < kRun && g + r < groups_.size() &&
           groups_[g + r].contiguous && groups_[g + r].end - groups_[g + r].begin == len) {
      ++r;
    }
    switch (r) {
      case 4: project_run<4>(g, len, out.data()); break;
      case 3: project_run<3>(g, len, out.data()); break;
      case 2: project_run<2>(g, len, out.data()); break;
      default: project_group(grp, out); break;
    }
    g += r;
  }
}

std::vector<double> CappedBoxPolytope::minimize_linear(const std::vector<double>& c) const {
  std::vector<double> x;
  minimize_linear_into(c, x);
  return x;
}

void CappedBoxPolytope::minimize_linear_into(const std::vector<double>& c,
                                             std::vector<double>& out) const {
  GREFAR_CHECK(c.size() == ub_.size());
  out.assign(ub_.size(), 0.0);
  // Box-only variables: saturate those with negative cost.
  for (std::size_t j = 0; j < out.size(); ++j) {
    if (!grouped_[j] && c[j] < 0.0) out[j] = ub_[j];
  }
  for (const auto& g : groups_) {
    // Fractional greedy: fill by ascending cost while cost < 0 and cap
    // remains. Only negative-cost variables can enter the solution, so
    // first scan for them (stride-1 on the contiguous fast path) — and if
    // their bounds cannot even reach the cap, the fill order is irrelevant
    // and the sort is skipped entirely.
    std::vector<std::size_t>& order = lmo_order_;
    order.clear();
    double neg_ub = 0.0;
    // Amortized: lmo_order_ is clear()+refilled, high-water capacity reused.
    if (g.contiguous) {
      for (std::size_t j = g.begin; j < g.end; ++j) {
        if (c[j] < 0.0) {
          order.push_back(j);  // NOLINT(grefar-hot-path-alloc)
          neg_ub += ub_[j];
        }
      }
    } else {
      for (std::size_t j : g.indices) {
        if (c[j] < 0.0) {
          order.push_back(j);  // NOLINT(grefar-hot-path-alloc)
          neg_ub += ub_[j];
        }
      }
    }
    if (neg_ub <= g.cap) {
      for (std::size_t j : order) out[j] = ub_[j];
      continue;
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return c[a] < c[b]; });
    double remaining = g.cap;
    for (std::size_t j : order) {
      if (remaining <= 0.0) break;
      double take = std::min(ub_[j], remaining);
      out[j] = take;
      remaining -= take;
    }
  }
}

}  // namespace grefar

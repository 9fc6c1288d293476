#include "sim/energy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace grefar {

EnergyCostCurve::EnergyCostCurve(const std::vector<ServerType>& server_types,
                                 const std::vector<std::int64_t>& available) {
  rebuild(server_types, available);
}

void EnergyCostCurve::rebuild(const std::vector<ServerType>& server_types,
                              const std::vector<std::int64_t>& available) {
  rebuild(server_types, available.data(), available.size());
}

void EnergyCostCurve::rebuild(const std::vector<ServerType>& server_types,
                              const std::int64_t* available, std::size_t count) {
  GREFAR_CHECK(!server_types.empty());
  GREFAR_CHECK(count == server_types.size());
  segments_.clear();
  capacity_ = 0.0;
  for (std::size_t k = 0; k < server_types.size(); ++k) {
    GREFAR_CHECK(available[k] >= 0);
    if (available[k] == 0) continue;
    const auto& st = server_types[k];
    GREFAR_CHECK(st.speed > 0.0);
    double cap = static_cast<double>(available[k]) * st.speed;
    segments_.push_back({k, st.speed, cap, st.busy_power / st.speed});
    capacity_ += cap;
  }
  std::sort(segments_.begin(), segments_.end(), [](const Segment& a, const Segment& b) {
    return a.energy_per_work < b.energy_per_work;
  });
}

double EnergyCostCurve::energy_for_work(double work) const {
  GREFAR_CHECK_MSG(work >= -1e-9, "negative work " << work);
  double remaining = std::min(std::max(work, 0.0), capacity_);
  double energy = 0.0;
  for (const auto& seg : segments_) {
    if (remaining <= 0.0) break;
    double served = std::min(remaining, seg.capacity);
    energy += served * seg.energy_per_work;
    remaining -= served;
  }
  return energy;
}

double EnergyCostCurve::smoothed_marginal(double work, double band) const {
  GREFAR_CHECK(work >= -1e-9);
  GREFAR_CHECK(band >= 0.0);
  if (segments_.empty()) return 0.0;
  double w = std::max(work, 0.0);
  double boundary = 0.0;
  for (std::size_t m = 0; m + 1 < segments_.size(); ++m) {
    boundary += segments_[m].capacity;
    double delta = std::min({band, 0.5 * segments_[m].capacity,
                             0.5 * segments_[m + 1].capacity});
    if (w < boundary - delta) return segments_[m].energy_per_work;
    if (w <= boundary + delta) {
      if (delta <= 0.0) return segments_[m + 1].energy_per_work;
      double frac = (w - (boundary - delta)) / (2.0 * delta);
      return segments_[m].energy_per_work +
             frac * (segments_[m + 1].energy_per_work - segments_[m].energy_per_work);
    }
  }
  return segments_.back().energy_per_work;
}

double EnergyCostCurve::smoothed_energy(double work, double band) const {
  GREFAR_CHECK(work >= -1e-9);
  GREFAR_CHECK(band >= 0.0);
  if (segments_.empty()) return 0.0;
  const double w = std::max(work, 0.0);

  // Integrate the smoothed slope piece by piece (segment interiors and
  // blend zones), generating pieces on the fly: this runs inside every
  // solver value/gradient evaluation, so it must not touch the heap.
  double energy = 0.0;
  bool past_w = false;
  auto accumulate = [&](double w0, double w1, double s0, double s1) {
    if (w <= w0) {
      past_w = true;
      return;
    }
    double hi = std::min(w, w1);
    double len = hi - w0;
    if (len <= 0.0) return;
    double full = w1 - w0;
    double s_hi = full > 0.0 && std::isfinite(full)
                      ? s0 + (s1 - s0) * (len / full)
                      : s0;
    energy += 0.5 * (s0 + s_hi) * len;  // trapezoid
  };
  double boundary = 0.0;
  double piece_start = 0.0;
  for (std::size_t m = 0; m < segments_.size() && !past_w; ++m) {
    boundary += segments_[m].capacity;
    double slope = segments_[m].energy_per_work;
    if (m + 1 < segments_.size()) {
      double next = segments_[m + 1].energy_per_work;
      double delta = std::min({band, 0.5 * segments_[m].capacity,
                               0.5 * segments_[m + 1].capacity});
      accumulate(piece_start, boundary - delta, slope, slope);
      if (!past_w) accumulate(boundary - delta, boundary + delta, slope, next);
      piece_start = boundary + delta;
    } else {
      accumulate(piece_start, boundary, slope, slope);
      // Linear extension beyond capacity (the feasible set caps W anyway).
      if (!past_w) {
        accumulate(boundary, std::numeric_limits<double>::infinity(), slope, slope);
      }
    }
  }
  return energy;
}

}  // namespace grefar

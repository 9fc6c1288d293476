#include "harness/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

// Nearest rank (1-based) of the per-mille percentile among n samples.
std::size_t nearest_rank(std::size_t n, int per_mille) {
  const std::size_t p = static_cast<std::size_t>(per_mille);
  return std::max<std::size_t>(1, (p * n + 999) / 1000);
}

}  // namespace

double percentile(std::vector<double> samples, int per_mille) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t rank = nearest_rank(samples.size(), per_mille);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(const std::vector<double>& samples) { return percentile(samples, 500); }

std::string TailChoice::label() const {
  std::string s = "p" + std::to_string(per_mille / 10);
  if (per_mille % 10 != 0) s += "." + std::to_string(per_mille % 10);
  return s;
}

TailChoice choose_tail(std::size_t num_samples) {
  static constexpr int kLadder[] = {999, 990, 950, 900, 750, 500};
  for (int p : kLadder) {
    const std::size_t beyond = num_samples - std::min(num_samples, nearest_rank(num_samples, p));
    if (beyond >= 10 || p == 500) return TailChoice{p, beyond};
  }
  return TailChoice{};
}

LatencySummary summarize_latency(const std::vector<double>& samples) {
  LatencySummary s;
  s.samples = samples.size();
  s.p50 = median(samples);
  s.tail = choose_tail(samples.size());
  s.tail_value = percentile(samples, s.tail.per_mille);
  return s;
}

}  // namespace perfbench

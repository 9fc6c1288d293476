// Sample statistics for the benchmark report: exact percentiles over the
// collected samples, the tail-percentile rule, and failure accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in per-mille, 0 < p <= 1000) of `samples`.
/// Sorts a copy; NaN when empty.
double percentile(std::vector<double> samples, int per_mille);

double median(const std::vector<double>& samples);

/// The tail the report prints: the highest percentile of the fixed ladder
/// 99.9 / 99 / 95 / 90 / 75 / 50 that leaves at least ten samples beyond
/// its nearest rank. Falls back to the median (with fewer than ten beyond)
/// when there are under twenty samples.
struct TailChoice {
  int per_mille = 500;
  std::size_t beyond = 0;  // samples strictly above the percentile's rank
  std::string label() const;  // "p99", "p99.9", ...
};
TailChoice choose_tail(std::size_t num_samples);

/// Median and tail of one latency distribution.
struct LatencySummary {
  std::size_t samples = 0;
  double p50 = 0.0;
  TailChoice tail;
  double tail_value = 0.0;
};
LatencySummary summarize_latency(const std::vector<double>& samples);

/// Items (slots or legs) attempted and failed. A failed item is one that did
/// not complete or whose output disagreed with its reference.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void attempt(std::int64_t items, std::int64_t completed) {
    attempted += items;
    failed += items - completed;
  }
  void mismatch(std::int64_t items) { failed += items; }
  double failed_frac() const {
    return attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                         : 0.0;
  }
};

}  // namespace perfbench

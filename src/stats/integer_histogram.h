// Exact histogram over non-negative integers (one counter per value).
//
// Job delays are whole slot counts, so the simulator keeps their full
// distribution: one increment per sample, an exact int64 sum, and quantiles
// read off the counts as exact order statistics. Replaces streaming
// estimators wherever the samples are small integers.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "util/annotations.h"

namespace grefar {

class IntegerHistogram {
 public:
  /// Largest value add() accepts: the counter array is O(largest value), and
  /// a delay this long (~7,600 years of hourly slots) means a bug upstream.
  static constexpr std::int64_t kMaxValue = (std::int64_t{1} << 26) - 1;

  /// Records one sample; 0 <= x <= kMaxValue (contract-checked). The counter
  /// array grows geometrically to cover the largest value seen.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void add(std::int64_t x) {
    if (x >= 0 && static_cast<std::uint64_t>(x) < counts_.size()) {
      ++counts_[static_cast<std::size_t>(x)];
      ++count_;
      sum_ += x;
      if (x < min_) min_ = x;
      if (x > max_) max_ = x;
    } else {
      add_slow(x);
    }
  }

  /// Back to the empty state, keeping the counter array's capacity (sweep
  /// engine reuse: steady state allocation-free).
  void reset();

  std::int64_t count() const { return count_; }
  /// Exact sum of all samples.
  std::int64_t sum() const { return sum_; }
  /// Smallest / largest sample; 0 when empty.
  std::int64_t min() const { return count_ > 0 ? min_ : 0; }
  std::int64_t max() const { return count_ > 0 ? max_ : 0; }

  /// Type-7 quantile (linear interpolation between the order statistics at
  /// ranks floor(h) and floor(h) + 1, h = q (n - 1)), q in [0, 1]. NaN when
  /// empty — "no samples" must not masquerade as a zero delay (JSON
  /// emitters serialize it as null).
  double quantile(double q) const;

 private:
  void add_slow(std::int64_t x);
  /// The sample at 0-based rank r (r < count_) in ascending order.
  std::int64_t value_at_rank(std::int64_t r) const;

  std::vector<std::int64_t> counts_;  // counts_[x] = samples equal to x
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ = -1;
};

}  // namespace grefar

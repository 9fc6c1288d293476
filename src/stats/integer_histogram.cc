#include "stats/integer_histogram.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace grefar {

void IntegerHistogram::add_slow(std::int64_t x) {
  GREFAR_CHECK_MSG(x >= 0, "negative histogram sample " << x);
  GREFAR_CHECK_MSG(x <= kMaxValue, "histogram sample " << x << " exceeds " << kMaxValue);
  const auto needed = static_cast<std::size_t>(x) + 1;
  const auto cap = static_cast<std::size_t>(kMaxValue) + 1;
  const std::size_t grown = std::max({needed, 2 * counts_.size(), std::size_t{64}});
  counts_.resize(std::min(grown, cap), 0);
  add(x);
}

void IntegerHistogram::reset() {
  if (count_ > 0) {
    std::fill(counts_.begin() + min_, counts_.begin() + max_ + 1, 0);
  }
  count_ = 0;
  sum_ = 0;
  min_ = std::numeric_limits<std::int64_t>::max();
  max_ = -1;
}

double IntegerHistogram::mean() const {
  return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
}

std::int64_t IntegerHistogram::value_at_rank(std::int64_t r) const {
  std::int64_t seen = 0;
  for (std::int64_t v = min_; v < max_; ++v) {
    seen += counts_[static_cast<std::size_t>(v)];
    if (seen > r) return v;
  }
  return max_;
}

double IntegerHistogram::quantile(double q) const {
  GREFAR_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile must be in [0,1], got " << q);
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  const double idx = q * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::int64_t>(idx);
  const std::int64_t hi = std::min(lo + 1, count_ - 1);
  const double frac = idx - static_cast<double>(lo);
  return static_cast<double>(value_at_rank(lo)) * (1.0 - frac) +
         static_cast<double>(value_at_rank(hi)) * frac;
}

}  // namespace grefar

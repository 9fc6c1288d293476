// Streaming statistics: Welford mean/variance, min/max.
#pragma once

#include <cstdint>
#include <limits>

#include "util/annotations.h"

namespace grefar {

/// Numerically-stable streaming mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC void add(double x);

  std::int64_t count() const { return count_; }
  /// Mean of observed samples; 0 when empty.
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return count_ > 0 ? mean_ * static_cast<double>(count_) : 0.0; }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace grefar

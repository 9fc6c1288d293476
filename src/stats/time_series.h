// TimeSeries: a (slot, value) recording with the views the paper's figures
// need — notably running prefix averages ("average values at time t are
// obtained by summing all values up to t and dividing by t", paper §VI).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace grefar {

class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Appends the value observed at the next slot.
  void add(double value);

  /// Drops all samples but keeps the name and the heap capacity, so a reused
  /// engine's metrics re-record without reallocating (sweep arena contract).
  void clear() { values_.clear(); }

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double at(std::size_t i) const;
  const std::vector<double>& values() const { return values_; }

  /// values[i] replaced by mean(values[0..i]) — the paper's running average.
  TimeSeries prefix_average() const;

  /// Mean over the whole series (0 when empty).
  double mean() const;

  /// Sum over the whole series.
  double sum() const;

  /// Element-wise running ratio: mean of numerator to `t` over mean of
  /// denominator to `t`. Used for time-averaged delay (total delay incurred /
  /// total jobs finished). Series must be equal length. Slots where the
  /// denominator prefix-sum is 0 yield 0.
  static TimeSeries prefix_ratio(const TimeSeries& numerator,
                                 const TimeSeries& denominator,
                                 std::string name);

 private:
  std::string name_;
  std::vector<double> values_;
};

/// Writes aligned columns of several equally-long series to CSV text,
/// prefixed with a slot column.
std::string time_series_to_csv(const std::vector<const TimeSeries*>& series);

/// Pearson correlation coefficient of two equally-long series; 0 when either
/// series is constant or empty. Used e.g. to quantify how strongly a
/// scheduler's processing tracks electricity prices (Fig. 5).
double correlation(const TimeSeries& a, const TimeSeries& b);

}  // namespace grefar

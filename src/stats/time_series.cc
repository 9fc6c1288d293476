#include "stats/time_series.h"

#include <cmath>
#include <sstream>

#include "util/check.h"
#include "util/csv.h"
#include "util/strings.h"

namespace grefar {

void TimeSeries::add(double value) { values_.push_back(value); }

double TimeSeries::at(std::size_t i) const {
  GREFAR_CHECK(i < values_.size());
  return values_[i];
}

TimeSeries TimeSeries::prefix_average() const {
  TimeSeries out(name_ + "_avg");
  double sum = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    sum += values_[i];
    out.add(sum / static_cast<double>(i + 1));
  }
  return out;
}

double TimeSeries::mean() const {
  if (values_.empty()) return 0.0;
  return sum() / static_cast<double>(values_.size());
}

double TimeSeries::sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

TimeSeries TimeSeries::prefix_ratio(const TimeSeries& numerator,
                                    const TimeSeries& denominator,
                                    std::string name) {
  GREFAR_CHECK_MSG(numerator.size() == denominator.size(),
                   "prefix_ratio needs equal-length series");
  TimeSeries out(std::move(name));
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < numerator.size(); ++i) {
    num += numerator.values_[i];
    den += denominator.values_[i];
    out.add(den > 0.0 ? num / den : 0.0);
  }
  return out;
}

double correlation(const TimeSeries& a, const TimeSeries& b) {
  GREFAR_CHECK_MSG(a.size() == b.size(), "correlation needs equal-length series");
  if (a.empty()) return 0.0;
  const double ma = a.mean();
  const double mb = b.mean();
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double da = a.at(i) - ma;
    double db = b.at(i) - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  return va > 0.0 && vb > 0.0 ? cov / std::sqrt(va * vb) : 0.0;
}

std::string time_series_to_csv(const std::vector<const TimeSeries*>& series) {
  std::ostringstream os;
  CsvWriter writer(os);
  std::vector<std::string> header{"slot"};
  std::size_t length = 0;
  for (const auto* s : series) {
    GREFAR_CHECK(s != nullptr);
    header.push_back(s->name());
    length = std::max(length, s->size());
  }
  writer.write_row(header);
  for (std::size_t i = 0; i < length; ++i) {
    std::vector<std::string> row{std::to_string(i)};
    for (const auto* s : series) {
      row.push_back(i < s->size() ? format_fixed(s->at(i), 6) : "");
    }
    writer.write_row(row);
  }
  return os.str();
}

}  // namespace grefar

#include "trace/price_trace.h"

#include <fstream>
#include <limits>
#include <sstream>

#include "trace/stream_source.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/strings.h"

namespace grefar {
namespace {

// Rows in any slot order: a reorder window covering the whole document.
constexpr StreamSourceOptions kWholeDocument{
    .reorder_window = std::numeric_limits<std::int64_t>::max()};

/// Drains the source into series[dc][t].
Result<std::vector<std::vector<double>>> drain_series(
    StreamingPriceTraceSource& source) {
  std::vector<std::vector<double>> series(source.num_data_centers());
  std::vector<double> prices;
  while (true) {
    auto more = source.next_slot_into(prices);
    if (!more.ok()) return more.error();
    if (!more.value()) return series;
    for (std::size_t d = 0; d < series.size(); ++d) series[d].push_back(prices[d]);
  }
}

}  // namespace

std::vector<std::vector<double>> materialize_prices(const PriceModel& model,
                                                    std::int64_t horizon) {
  GREFAR_CHECK(horizon >= 0);
  std::vector<std::vector<double>> out(model.num_data_centers());
  for (std::size_t dc = 0; dc < out.size(); ++dc) {
    out[dc].reserve(static_cast<std::size_t>(horizon));
    for (std::int64_t t = 0; t < horizon; ++t) out[dc].push_back(model.price(dc, t));
  }
  return out;
}

std::string price_trace_to_csv(const std::vector<std::vector<double>>& series) {
  std::ostringstream os;
  CsvWriter writer(os);
  writer.write_row(std::vector<std::string>{"slot", "dc", "price"});
  if (series.empty()) return os.str();
  for (std::size_t t = 0; t < series.front().size(); ++t) {
    for (std::size_t dc = 0; dc < series.size(); ++dc) {
      writer.write_row(std::vector<std::string>{std::to_string(t), std::to_string(dc),
                                                format_fixed(series[dc][t], 6)});
    }
  }
  return os.str();
}

Status write_price_trace(const std::string& path,
                         const std::vector<std::vector<double>>& series) {
  return write_file(path, price_trace_to_csv(series));
}

Status write_price_trace_streaming(const PriceModel& model,
                                   std::int64_t horizon,
                                   const std::string& path) {
  GREFAR_CHECK(horizon > 0);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Error::make("cannot open file for writing: " + path);
  CsvWriter writer(out);
  writer.write_row(std::vector<std::string>{"slot", "dc", "price"});
  std::vector<std::string> row(3);
  for (std::int64_t t = 0; t < horizon; ++t) {
    for (std::size_t dc = 0; dc < model.num_data_centers(); ++dc) {
      row[0] = std::to_string(t);
      row[1] = std::to_string(dc);
      row[2] = format_fixed(model.price(dc, t), 6);
      writer.write_row(row);
    }
  }
  if (!out) return Error::make("write failed: " + path);
  return {};
}

Result<std::vector<std::vector<double>>> read_price_trace(const std::string& path,
                                                          std::size_t num_dcs) {
  StreamingPriceTraceSource source(path, num_dcs, kWholeDocument);
  return drain_series(source);
}

}  // namespace grefar

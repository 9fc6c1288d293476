// In-memory trace documents drained through the streaming sources
// (trace/stream_source.h) over an istringstream. With kWholeDocument they
// read a document the way the batch file readers do: rows in any slot
// order, every diagnostic the source's own.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "trace/job_trace.h"
#include "trace/stream_source.h"
#include "util/result.h"

namespace grefar {

/// The batch readers' options: a reorder window covering the whole document.
inline constexpr StreamSourceOptions kWholeDocument{
    .reorder_window = std::numeric_limits<std::int64_t>::max()};

inline std::unique_ptr<std::istream> stream_of(const std::string& text) {
  return std::make_unique<std::istringstream>(text);
}

/// Drains a job source over `csv` into the dense count table (either schema
/// version; v2 annotations are dropped).
inline Result<std::vector<std::vector<std::int64_t>>> drain_jobs(
    const std::string& csv, std::size_t num_types, StreamSourceOptions options = {}) {
  StreamingJobTraceSource source(stream_of(csv), num_types, options);
  std::vector<std::vector<std::int64_t>> table;
  std::vector<std::int64_t> counts;
  while (true) {
    auto more = source.next_slot_into(counts);
    if (!more.ok()) return more.error();
    if (!more.value()) return table;
    table.push_back(counts);
  }
}

/// Drains a job source over `csv` through the batch API.
inline Result<ValuedJobTrace> drain_batches(const std::string& csv,
                                            std::size_t num_types,
                                            StreamSourceOptions options = {}) {
  StreamingJobTraceSource source(stream_of(csv), num_types, options);
  ValuedJobTrace trace;
  trace.schema = source.schema();
  std::vector<ArrivalBatch> batches;
  while (true) {
    auto more = source.next_slot_batches_into(batches);
    if (!more.ok()) return more.error();
    if (!more.value()) return trace;
    trace.slots.push_back(batches);
  }
}

/// Drains a price source over `csv` into series[dc][t].
inline Result<std::vector<std::vector<double>>> drain_prices(
    const std::string& csv, std::size_t num_dcs, StreamSourceOptions options = {}) {
  StreamingPriceTraceSource source(stream_of(csv), num_dcs, options);
  std::vector<std::vector<double>> series(num_dcs);
  std::vector<double> prices;
  while (true) {
    auto more = source.next_slot_into(prices);
    if (!more.ok()) return more.error();
    if (!more.value()) return series;
    for (std::size_t d = 0; d < num_dcs; ++d) series[d].push_back(prices[d]);
  }
}

}  // namespace grefar

// Price-trace CSV schema: hourly prices per data center, as published by
// markets like CAISO/FERC (paper refs [13][14]).
//
// Format (header required):
//   slot,dc,price
//   0,0,0.392
//   ...
// Every (slot, dc) must be present for slots [0, horizon). The readers are
// drains of StreamingPriceTraceSource (stream_source.h) with a reorder
// window covering the whole document, so a gap fails with the streaming
// source's message, naming the earliest slot that has one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "price/price_model.h"
#include "util/result.h"

namespace grefar {

/// Materializes a price model over [0, horizon) into series[dc][t].
std::vector<std::vector<double>> materialize_prices(const PriceModel& model,
                                                    std::int64_t horizon);

/// Serializes series[dc][t] to the price CSV format.
std::string price_trace_to_csv(const std::vector<std::vector<double>>& series);

Status write_price_trace(const std::string& path,
                         const std::vector<std::vector<double>>& series);

/// Streams `model` over [0, horizon) straight to `path` in O(1 slot)
/// memory (the price-trace analogue of write_job_trace_streaming).
Status write_price_trace_streaming(const PriceModel& model,
                                   std::int64_t horizon,
                                   const std::string& path);

/// Reads a price trace file into series[dc][t] with `num_dcs` rows,
/// streaming the file. Fails on malformed rows, out-of-range dc ids, gaps, or
/// non-positive prices: every dc's series spans the same [0, max slot in
/// file].
Result<std::vector<std::vector<double>>> read_price_trace(const std::string& path,
                                                          std::size_t num_dcs);

}  // namespace grefar

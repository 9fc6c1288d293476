#include "trace/job_trace.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "trace/stream_source.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/strings.h"

namespace grefar {
namespace {

// The batch readers take rows in any slot order: a reorder window covering
// the whole document, so the source parses it all before the first slot.
constexpr StreamSourceOptions kWholeDocument{
    .reorder_window = std::numeric_limits<std::int64_t>::max()};

Result<std::vector<std::vector<std::int64_t>>> drain_counts(
    StreamingJobTraceSource& source) {
  // The counts table has no room for annotations: v1 only.
  if (source.schema() == JobTraceSchema::kValued) {
    return Error::make("job trace must start with header 'slot,type,count' at " +
                       source.header_start().to_string());
  }
  std::vector<std::vector<std::int64_t>> table;
  std::vector<std::int64_t> counts;
  while (true) {
    auto more = source.next_slot_into(counts);
    if (!more.ok()) return more.error();
    if (!more.value()) return table;
    table.push_back(counts);
  }
}

Result<ValuedJobTrace> drain_batches(StreamingJobTraceSource& source) {
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

}  // namespace

std::vector<std::vector<std::int64_t>> materialize_arrivals(
    const ArrivalProcess& process, std::int64_t horizon) {
  GREFAR_CHECK(horizon >= 0);
  std::vector<std::vector<std::int64_t>> out;
  out.reserve(static_cast<std::size_t>(horizon));
  for (std::int64_t t = 0; t < horizon; ++t) out.push_back(process.arrivals(t));
  return out;
}

std::string job_trace_to_csv(const std::vector<std::vector<std::int64_t>>& counts) {
  std::ostringstream os;
  CsvWriter writer(os);
  writer.write_row(std::vector<std::string>{"slot", "type", "count"});
  for (std::size_t t = 0; t < counts.size(); ++t) {
    for (std::size_t j = 0; j < counts[t].size(); ++j) {
      if (counts[t][j] == 0) continue;  // sparse on disk
      writer.write_row(std::vector<std::string>{
          std::to_string(t), std::to_string(j), std::to_string(counts[t][j])});
    }
  }
  return os.str();
}

Status write_job_trace(const std::string& path,
                       const std::vector<std::vector<std::int64_t>>& counts) {
  return write_file(path, job_trace_to_csv(counts));
}

Status write_job_trace_streaming(const ArrivalProcess& process,
                                 std::int64_t horizon,
                                 const std::string& path) {
  GREFAR_CHECK(horizon > 0);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Error::make("cannot open file for writing: " + path);
  CsvWriter writer(out);
  writer.write_row(std::vector<std::string>{"slot", "type", "count"});
  std::vector<std::int64_t> counts;
  std::vector<std::string> row(3);
  for (std::int64_t t = 0; t < horizon; ++t) {
    process.arrivals_into(t, counts);
    bool wrote_any = false;
    for (std::size_t j = 0; j < counts.size(); ++j) {
      if (counts[j] == 0) continue;  // sparse on disk
      row[0] = std::to_string(t);
      row[1] = std::to_string(j);
      row[2] = std::to_string(counts[j]);
      writer.write_row(row);
      wrote_any = true;
    }
    // Pin the trace's span to [0, horizon) even when the last slot is idle.
    if (t == horizon - 1 && !wrote_any) {
      row[0] = std::to_string(t);
      row[1].assign(1, '0');  // not = "0": g++ 12 reports a false -Wrestrict
      row[2].assign(1, '0');
      writer.write_row(row);
    }
  }
  if (!out) return Error::make("write failed: " + path);
  return {};
}

Result<std::vector<std::vector<std::int64_t>>> read_job_trace(const std::string& path,
                                                              std::size_t num_types) {
  StreamingJobTraceSource source(path, num_types, kWholeDocument);
  return drain_counts(source);
}

std::string valued_job_trace_to_csv(
    const std::vector<std::vector<ArrivalBatch>>& slots) {
  std::ostringstream os;
  CsvWriter writer(os);
  writer.write_row(std::vector<std::string>{"slot", "type", "count", "value",
                                            "decay", "deadline"});
  for (std::size_t t = 0; t < slots.size(); ++t) {
    for (const ArrivalBatch& b : slots[t]) {
      if (b.count == 0) continue;  // sparse on disk
      GREFAR_CHECK_MSG(!std::isnan(b.value) && !std::isnan(b.decay_rate) &&
                           b.deadline != kTypeDefaultDeadline,
                       "valued_job_trace_to_csv needs concrete annotations; "
                       "resolve JobType defaults before writing (slot "
                           << t << ")");
      writer.write_row(std::vector<std::string>{
          std::to_string(t), std::to_string(b.type), std::to_string(b.count),
          format_fixed(b.value, 6), format_fixed(b.decay_rate, 6),
          std::to_string(b.deadline == kNoDeadline ? -1 : b.deadline)});
    }
  }
  return os.str();
}

Status write_valued_job_trace(const std::string& path,
                              const std::vector<std::vector<ArrivalBatch>>& slots) {
  return write_file(path, valued_job_trace_to_csv(slots));
}

Result<ValuedJobTrace> read_valued_job_trace(const std::string& path,
                                             std::size_t num_types) {
  StreamingJobTraceSource source(path, num_types, kWholeDocument);
  return drain_batches(source);
}

}  // namespace grefar

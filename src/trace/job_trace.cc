#include "trace/job_trace.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "trace/stream_csv.h"
#include "trace/trace_schema.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/strings.h"

namespace grefar {

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

Result<std::vector<std::vector<std::int64_t>>> job_trace_from_csv(
    std::string_view csv, std::size_t num_types) {
  // Materializing wrapper over the one streaming parser: rows accumulate
  // into the dense table as they are emitted, no intermediate row list.
  std::vector<std::vector<std::int64_t>> table;
  std::uint64_t rows_seen = 0;
  Status st = parse_csv(
      csv,
      [&table, &rows_seen, num_types](const std::vector<std::string>& fields,
                                      std::uint64_t row_index,
                                      const CsvPosition& row_start) -> Status {
        ++rows_seen;
        if (row_index == 0) return check_job_trace_header(fields, row_start);
        auto row = decode_job_trace_row(fields, num_types, row_index, row_start);
        if (!row.ok()) return row.error();
        auto s = static_cast<std::size_t>(row.value().slot);
        if (table.size() <= s) {
          table.resize(s + 1, std::vector<std::int64_t>(num_types, 0));
        }
        table[s][row.value().type] += row.value().count;
        return {};
      });
  if (!st.ok()) return st.error();
  if (rows_seen == 0) return Error::make("empty job trace");
  if (table.empty()) return Error::make("job trace has no data rows");
  return table;
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
  auto content = read_file(path);
  if (!content.ok()) return content.error();
  return job_trace_from_csv(content.value(), num_types);
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

Result<ValuedJobTrace> valued_job_trace_from_csv(std::string_view csv,
                                                 std::size_t num_types) {
  ValuedJobTrace trace;
  std::uint64_t rows_seen = 0;
  std::uint64_t data_rows = 0;
  Status st = parse_csv(
      csv,
      [&trace, &rows_seen, &data_rows, num_types](
          const std::vector<std::string>& fields, std::uint64_t row_index,
          const CsvPosition& row_start) -> Status {
        ++rows_seen;
        if (row_index == 0) {
          auto schema = detect_job_trace_header(fields, row_start);
          if (!schema.ok()) return schema.error();
          trace.schema = schema.value();
          return {};
        }
        ++data_rows;
        ArrivalBatch batch;
        std::int64_t slot = 0;
        if (trace.schema == JobTraceSchema::kValued) {
          auto row = decode_valued_job_trace_row(fields, num_types, row_index,
                                                 row_start);
          if (!row.ok()) return row.error();
          slot = row.value().slot;
          batch.type = row.value().type;
          batch.count = row.value().count;
          batch.value = row.value().value;
          batch.decay_rate = row.value().decay;
          batch.deadline = row.value().deadline < 0 ? kNoDeadline
                                                    : row.value().deadline;
        } else {
          auto row = decode_job_trace_row(fields, num_types, row_index, row_start);
          if (!row.ok()) return row.error();
          slot = row.value().slot;
          batch.type = row.value().type;
          batch.count = row.value().count;
          // value/decay_rate/deadline keep their "defer to the JobType"
          // sentinels (workload/arrival_process.h).
        }
        auto s = static_cast<std::size_t>(slot);
        if (trace.slots.size() <= s) trace.slots.resize(s + 1);
        trace.slots[s].push_back(batch);
        return {};
      });
  if (!st.ok()) return st.error();
  if (rows_seen == 0) return Error::make("empty job trace");
  if (data_rows == 0) return Error::make("job trace has no data rows");
  return trace;
}

Status write_valued_job_trace(const std::string& path,
                              const std::vector<std::vector<ArrivalBatch>>& slots) {
  return write_file(path, valued_job_trace_to_csv(slots));
}

Result<ValuedJobTrace> read_valued_job_trace(const std::string& path,
                                             std::size_t num_types) {
  auto content = read_file(path);
  if (!content.ok()) return content.error();
  return valued_job_trace_from_csv(content.value(), num_types);
}

}  // namespace grefar

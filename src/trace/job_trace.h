// Job-trace CSV schema: persistence for arrival traces so experiments can be
// driven by recorded (or externally supplied) workloads, exactly as the
// paper drives its simulator with the Cosmos trace.
//
// Two schema versions (JobTraceSchema, stream_source.h):
//
// v1 (counts only, header required):
//   slot,type,count
//   0,0,3
//   0,1,1
// v2 (value/decay/deadline annotations per batch):
//   slot,type,count,value,decay,deadline
//   0,0,3,2.5,0.1,12
//   0,1,1,1.0,0.0,-1
//
// Slot/type pairs may be omitted (count 0) and appear in any order. The
// valued readers accept either version — v1 rows become batches whose
// annotations defer to the JobType defaults — so existing traces parse
// unchanged everywhere.
//
// The readers are drains of StreamingJobTraceSource (stream_source.h) with
// a reorder window covering the whole document: slot assembly, zero-fill,
// duplicate handling and every diagnostic come from the one streaming
// reader, so batch and served runs read a trace identically by
// construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/stream_source.h"
#include "util/result.h"
#include "workload/arrival_process.h"

namespace grefar {

/// Materializes an arrival process over [0, horizon) into a dense count
/// table (rows = slots, cols = job types).
std::vector<std::vector<std::int64_t>> materialize_arrivals(
    const ArrivalProcess& process, std::int64_t horizon);

/// Serializes a dense count table to the trace CSV format.
std::string job_trace_to_csv(const std::vector<std::vector<std::int64_t>>& counts);

/// Writes a dense count table to a trace file.
Status write_job_trace(const std::string& path,
                       const std::vector<std::vector<std::int64_t>>& counts);

/// Streams `process` over [0, horizon) straight to `path`, one slot at a
/// time — never materializes the table, so traces far larger than RAM can
/// be generated in O(1 slot) memory. Rows are sparse (zero counts skipped);
/// a zero-count row is emitted for the final slot if it would otherwise be
/// absent, so the trace always spans exactly [0, horizon).
Status write_job_trace_streaming(const ArrivalProcess& process,
                                 std::int64_t horizon,
                                 const std::string& path);

/// Reads a v1 trace file into a dense table with `num_types` columns,
/// streaming the file. The table spans [0, max slot in file]. Fails on
/// malformed rows, out-of-range type ids, a v2 header, or with
/// "cannot open file: <path>" when the file cannot be opened.
Result<std::vector<std::vector<std::int64_t>>> read_job_trace(const std::string& path,
                                                              std::size_t num_types);

/// A parsed job trace in batch form: slots[t] holds slot t's arrival
/// batches in file order (one per data row; duplicates stay separate).
struct ValuedJobTrace {
  JobTraceSchema schema = JobTraceSchema::kCounts;
  std::vector<std::vector<ArrivalBatch>> slots;  // spans [0, max slot in file]
};

/// Serializes per-slot batches to the v2 CSV format, one row per batch in
/// order. Every batch must carry concrete annotations (contract-checked):
/// resolve JobType defaults before writing — the sentinel "defer to type"
/// encodings (NaN, kTypeDefaultDeadline) have no file representation.
std::string valued_job_trace_to_csv(
    const std::vector<std::vector<ArrivalBatch>>& slots);

/// File variant of the valued writer.
Status write_valued_job_trace(const std::string& path,
                              const std::vector<std::vector<ArrivalBatch>>& slots);

/// Reads a trace file of either schema version into batch form (see the
/// header comment): v1 rows yield batches with deferred annotations, v2 rows
/// carry their own.
Result<ValuedJobTrace> read_valued_job_trace(const std::string& path,
                                             std::size_t num_types);

}  // namespace grefar

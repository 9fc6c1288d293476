// Streaming per-slot trace sources: pull arrivals / prices for one slot at a
// time from a CSV stream without ever materializing the horizon. They are
// the repo's one trace reader: the batch readers (job_trace.h,
// price_trace.h) drain them with a reorder window covering the whole
// document.
//
// Both sources wrap the one StreamCsvParser (stream_csv.h), decode rows
// with file-local decoders (stream_source.cc) straight from the parser's
// field views (the numbers go through std::from_chars; nothing is copied
// into strings), and keep an O(reorder_window) buffer: input rows may
// appear out of slot order by at most `reorder_window` slots (0 =
// slot-sorted input; rows for the same slot may always repeat). Slot t is
// emitted once a row for a slot beyond t + window has been seen — or at
// end of input — so peak memory is O(window + one read chunk), independent
// of the trace length. A row for an already-emitted slot fails with its
// byte offset instead of being silently dropped.
//
// Input is read `chunk_bytes` at a time but parsed one line at a time
// (TraceChunkReader), and only as far as the pulled slot needs: at most
// reorder_window + 2 slots are ever buffered, and a bad row surfaces from
// the first pull that needs it, whatever the read size (DESIGN.md §14).
//
// Pending slots live in a PendingSlots store: one recycled buffer per
// distinct slot that has rows, in slot order, never indexed by slot
// number (a drain's window spans the whole document, and one far-off row
// must not cost the span). An emitted slot's buffer is swapped into the
// caller's vector and the caller's old vector goes back to the free list,
// so a served run stops allocating once the buffers are warm.
//
// Semantics:
//   - job traces: either schema version (JobTraceSchema), detected from the
//     header; counts for duplicate (slot,type) rows accumulate; slots
//     absent from the file yield all-zero counts; the emitted range is
//     [0, max slot in file]; a header-only file is "no data rows".
//   - price traces: every (slot,dc) must be present for each emitted slot
//     (duplicates: last wins); the earliest gap and non-positive prices are
//     errors.
//   - both: a slot at or beyond kMaxTraceSlots is an error, so one far-off
//     row cannot make a drain zero-fill millions of slots.
// Every diagnostic names the row index and the row's byte position in the
// stream ("job trace row 3 at byte 41 (line 4, col 1) is malformed").
#pragma once

#include <cstdint>
#include <istream>
#include <iterator>
#include <map>
#include <memory>
#include <memory_resource>
#include <string>
#include <utility>
#include <vector>

#include "trace/stream_csv.h"
#include "util/result.h"
#include "workload/arrival_process.h"

namespace grefar {

/// Job-trace schema versions, distinguished by the header row:
///   kCounts — v1, "slot,type,count": arrival counts only (every existing
///             trace; value/decay/deadline default from the JobType).
///   kValued — v2, "slot,type,count,value,decay,deadline": each batch
///             additionally carries a base value (finite, >= 0), a decay
///             rate (finite, >= 0; the JobType's curve kind applies), and a
///             relative completion deadline in slots (-1 = no deadline).
enum class JobTraceSchema { kCounts, kValued };

/// Hard limit on trace slots, the row decoders' counterpart of CsvLimits: a
/// row for slot >= kMaxTraceSlots fails naming its row and byte. 2^20 slots
/// is ~120 years of hourly slots; no bench, config or test comes near it.
inline constexpr std::int64_t kMaxTraceSlots = std::int64_t{1} << 20;

struct StreamSourceOptions {
  /// Rows may arrive out of slot order by at most this many slots.
  std::int64_t reorder_window = 0;
  /// Bytes per read(2)-style pull from the underlying stream.
  std::size_t chunk_bytes = 64 * 1024;
};

/// The read side both sources share: reads the stream `chunk_bytes` per
/// pull into a reused buffer and feeds the parser from it one line (up to
/// and including a '\n') per pump(), so the parser never runs more than one
/// row ahead of what its caller asked for. Since the parser is split-point
/// invariant, rows, errors and byte offsets do not depend on the pieces.
class TraceChunkReader {
 public:
  /// `what` names the trace in read-error messages ("job trace").
  TraceChunkReader(std::unique_ptr<std::istream> in, const char* what,
                   const StreamSourceOptions& options,
                   StreamCsvParser::RowCallback on_row);

  /// Feeds the next line of buffered input, reading a chunk first when the
  /// buffer is drained; completes at most one row. Once the input is
  /// exhausted, finishes the parser and sets eof().
  Status pump();
  bool eof() const { return eof_; }
  std::istream& stream() { return *in_; }

 private:
  std::unique_ptr<std::istream> in_;
  const char* what_;
  StreamCsvParser parser_;
  std::vector<char> chunk_;
  std::size_t begin_ = 0;  // next byte of chunk_ to feed
  std::size_t end_ = 0;    // bytes of chunk_ filled by the last read
  bool input_done_ = false;
  bool read_failed_ = false;
  bool eof_ = false;
};

/// Buffers of pending slots, in slot order: one entry per distinct slot
/// that has rows, its buffer taken from a free list and returned to it
/// when the slot is emitted. The slot index is a map whose nodes come from
/// a pool that keeps freed nodes, so any row order costs O(log pending)
/// and a steady stream (rows slot-sorted: each lookup hits the newest
/// entry) recycles the same few nodes and buffers and allocates nothing.
template <typename Buffer>
class PendingSlots {
 public:
  /// The buffer of `slot`, and whether it was just taken from the free list
  /// (its content is then stale: the caller resets it). The pointer is
  /// valid until the next call that adds a slot.
  std::pair<Buffer*, bool> find_or_add(std::int64_t slot) {
    if (!order_.empty()) {
      const auto newest = std::prev(order_.end());
      if (newest->first == slot) return {&buffers_[newest->second], false};
    }
    // Hinted at the end: a new slot past the newest is added in O(1).
    const std::size_t pending = order_.size();
    const auto it = order_.try_emplace(order_.end(), slot, 0);
    if (order_.size() == pending) return {&buffers_[it->second], false};
    if (free_.empty()) {
      it->second = buffers_.size();
      buffers_.emplace_back();
    } else {
      it->second = free_.back();
      free_.pop_back();
    }
    return {&buffers_[it->second], true};
  }

  /// The buffer of the lowest pending slot when that slot is `slot`, else
  /// nullptr.
  Buffer* front(std::int64_t slot) {
    if (order_.empty() || order_.begin()->first != slot) return nullptr;
    return &buffers_[order_.begin()->second];
  }

  /// Returns the lowest pending slot's buffer to the free list.
  void pop_front() {
    free_.push_back(order_.begin()->second);
    order_.erase(order_.begin());
  }

  /// Pending slots.
  std::size_t size() const { return order_.size(); }

 private:
  std::pmr::unsynchronized_pool_resource nodes_;
  std::pmr::map<std::int64_t, std::size_t> order_{&nodes_};  // slot -> buffer
  std::vector<Buffer> buffers_;    // every buffer ever made
  std::vector<std::size_t> free_;  // indices of the unused ones
};

/// Streams a job trace (either schema version, detected from the header)
/// one slot at a time, as dense counts or as annotated arrival batches. Not copyable/movable: the parser callback captures
/// `this`. The constructor parses just the header line, so schema() is
/// valid immediately (read errors stay sticky and surface from the first
/// next_slot call).
class StreamingJobTraceSource {
 public:
  /// Reads from an arbitrary stream (tests use std::istringstream).
  StreamingJobTraceSource(std::unique_ptr<std::istream> in,
                          std::size_t num_types,
                          StreamSourceOptions options = {});
  /// Opens `path`; open failures surface from the first next_slot_into().
  StreamingJobTraceSource(const std::string& path, std::size_t num_types,
                          StreamSourceOptions options = {});

  StreamingJobTraceSource(const StreamingJobTraceSource&) = delete;
  StreamingJobTraceSource& operator=(const StreamingJobTraceSource&) = delete;

  /// Emits the next slot's counts (sized num_types) into `counts`.
  /// Returns true on a slot, false on clean end of stream; errors are
  /// sticky. No allocation on the steady-state path once `counts` and the
  /// pending buffers have reached capacity. Works for either schema (value
  /// annotations are simply dropped).
  Result<bool> next_slot_into(std::vector<std::int64_t>& counts);

  /// Emits the next slot's arrival batches (file order; one per data row)
  /// into `batches` — empty for slots absent from the file. v1 rows yield
  /// batches whose annotations defer to the JobType defaults. The slot's
  /// buffer is swapped in and `batches`' old storage recycled. Same
  /// true/false/sticky-error contract as next_slot_into; the two emit
  /// styles may not be mixed on one source (contract-checked).
  Result<bool> next_slot_batches_into(std::vector<ArrivalBatch>& batches);

  /// Schema of the underlying trace (valid from construction; kCounts when
  /// the stream is empty or unreadable — the error surfaces on first pull).
  JobTraceSchema schema() const { return schema_; }
  /// Convenience: true when the trace carries value/deadline annotations.
  bool valued() const { return schema_ == JobTraceSchema::kValued; }
  /// Where the header row starts (valid with schema()): a reader that takes
  /// one schema only names it when refusing the other.
  const CsvPosition& header_start() const { return header_start_; }

  std::size_t num_types() const { return num_types_; }
  /// Slot the next successful next_slot_into() call will emit.
  std::int64_t next_slot() const { return next_; }
  /// Peak number of slots simultaneously buffered (reorder diagnostics;
  /// at most reorder_window + 2).
  std::size_t buffered_slots_high_water() const { return high_water_; }

 private:
  enum class EmitStyle { kUnset, kCounts, kBatches };

  Status on_row(CsvRow fields, std::uint64_t row_index,
                const CsvPosition& row_start);
  /// Shared pull loop: pumps until slot next_ is provably complete, then
  /// reports ready (true), clean end (false), or the sticky error.
  Result<bool> advance_to_next_slot();

  std::size_t num_types_;
  StreamSourceOptions options_;
  TraceChunkReader reader_;
  /// Buffered rows per pending slot, in file order (both schemas store
  /// batches; densification happens at emit time for next_slot_into).
  PendingSlots<std::vector<ArrivalBatch>> pending_;
  JobTraceSchema schema_ = JobTraceSchema::kCounts;
  CsvPosition header_start_;
  EmitStyle emit_style_ = EmitStyle::kUnset;
  std::int64_t next_ = 0;
  std::int64_t max_seen_ = -1;
  std::uint64_t rows_total_ = 0;
  std::uint64_t data_rows_ = 0;
  std::size_t high_water_ = 0;
  std::unique_ptr<Error> error_;  // sticky
};

/// Streams a "slot,dc,price" price trace one slot of per-DC prices at a
/// time. Same contract as StreamingJobTraceSource.
class StreamingPriceTraceSource {
 public:
  StreamingPriceTraceSource(std::unique_ptr<std::istream> in,
                            std::size_t num_dcs,
                            StreamSourceOptions options = {});
  StreamingPriceTraceSource(const std::string& path, std::size_t num_dcs,
                            StreamSourceOptions options = {});

  StreamingPriceTraceSource(const StreamingPriceTraceSource&) = delete;
  StreamingPriceTraceSource& operator=(const StreamingPriceTraceSource&) = delete;

  /// Emits the next slot's prices (sized num_dcs) into `prices`, by swap
  /// as next_slot_batches_into does.
  Result<bool> next_slot_into(std::vector<double>& prices);

  std::size_t num_data_centers() const { return num_dcs_; }
  std::int64_t next_slot() const { return next_; }
  std::size_t buffered_slots_high_water() const { return high_water_; }

 private:
  struct PendingSlot {
    std::vector<double> prices;
    std::vector<bool> seen;
    std::size_t seen_count = 0;
  };

  Status on_row(CsvRow fields, std::uint64_t row_index,
                const CsvPosition& row_start);

  std::size_t num_dcs_;
  StreamSourceOptions options_;
  TraceChunkReader reader_;
  PendingSlots<PendingSlot> pending_;
  std::int64_t next_ = 0;
  std::int64_t max_seen_ = -1;
  std::uint64_t rows_total_ = 0;
  std::uint64_t data_rows_ = 0;
  std::size_t high_water_ = 0;
  std::unique_ptr<Error> error_;  // sticky
};

}  // namespace grefar

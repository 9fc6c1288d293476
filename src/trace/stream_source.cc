#include "trace/stream_source.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

#include "trace/trace_schema.h"
#include "util/check.h"

namespace grefar {

// ---------------------------------------------------------------------------
// TraceChunkReader

TraceChunkReader::TraceChunkReader(std::unique_ptr<std::istream> in,
                                   const char* what,
                                   const StreamSourceOptions& options,
                                   StreamCsvParser::RowCallback on_row)
    : in_(std::move(in)),
      what_(what),
      parser_(std::move(on_row), options.limits) {
  GREFAR_CHECK(in_ != nullptr);
  GREFAR_CHECK(options.reorder_window >= 0);
  GREFAR_CHECK(options.chunk_bytes > 0);
  chunk_.resize(options.chunk_bytes);
}

Status TraceChunkReader::pump() {
  if (begin_ == end_) {
    if (!input_done_ && !read_failed_) {
      in_->read(chunk_.data(), static_cast<std::streamsize>(chunk_.size()));
      const std::streamsize got = in_->gcount();
      begin_ = 0;
      end_ = got > 0 ? static_cast<std::size_t>(got) : 0;
      // badbit first: a failing read (a throwing streambuf, e.g. filebuf on
      // an I/O error) reports 0 bytes, which must not pass for end of input.
      if (in_->bad()) {
        read_failed_ = true;
      } else if (in_->eof() || got == 0) {
        input_done_ = true;
      }
    }
    if (begin_ == end_) {
      // Bytes a failed read did return are parsed first, so a parse error
      // in them takes precedence over the read error.
      if (read_failed_) {
        return Error::make(std::string("read error in ") + what_ + " stream");
      }
      eof_ = true;
      return parser_.finish();
    }
  }
  // One line per pump: every row ends at a '\n' or at finish(), so a pump
  // completes at most one row.
  const char* first = chunk_.data() + begin_;
  const std::size_t left = end_ - begin_;
  const void* nl = std::memchr(first, '\n', left);
  const std::size_t n =
      nl != nullptr ? static_cast<std::size_t>(static_cast<const char*>(nl) - first) + 1
                    : left;
  begin_ += n;
  return parser_.feed(std::string_view(first, n));
}

// ---------------------------------------------------------------------------
// StreamingJobTraceSource

StreamingJobTraceSource::StreamingJobTraceSource(
    std::unique_ptr<std::istream> in, std::size_t num_types,
    StreamSourceOptions options)
    : num_types_(num_types),
      options_(options),
      reader_(std::move(in), "job trace", options_,
              [this](const std::vector<std::string>& fields,
                     std::uint64_t row_index, const CsvPosition& row_start) {
                return on_row(fields, row_index, row_start);
              }) {
  // Parse the header so schema() works immediately; any error found here
  // stays sticky and surfaces from the first pull.
  while (!reader_.eof() && rows_total_ == 0 && !error_) {
    if (Status st = reader_.pump(); !st.ok()) {
      error_ = std::make_unique<Error>(st.error());
    }
  }
}

StreamingJobTraceSource::StreamingJobTraceSource(const std::string& path,
                                                 std::size_t num_types,
                                                 StreamSourceOptions options)
    : StreamingJobTraceSource(
          std::make_unique<std::ifstream>(path, std::ios::binary), num_types,
          options) {
  // The delegated constructor already parsed the header, possibly reading a
  // small file to EOF (which sets failbit) — only a failed open is an error.
  if (!static_cast<std::ifstream&>(reader_.stream()).is_open()) {
    error_ = std::make_unique<Error>(Error::make("cannot open file: " + path));
  }
}

Status StreamingJobTraceSource::on_row(const std::vector<std::string>& fields,
                                       std::uint64_t row_index,
                                       const CsvPosition& row_start) {
  ++rows_total_;
  if (row_index == 0) {
    auto schema = detect_job_trace_header(fields, row_start);
    if (!schema.ok()) return schema.error();
    schema_ = schema.value();
    return {};
  }
  std::int64_t slot = 0;
  ArrivalBatch batch;
  if (schema_ == JobTraceSchema::kValued) {
    auto row = decode_valued_job_trace_row(fields, num_types_, row_index,
                                           row_start);
    if (!row.ok()) return row.error();
    slot = row.value().slot;
    batch.type = row.value().type;
    batch.count = row.value().count;
    batch.value = row.value().value;
    batch.decay_rate = row.value().decay;
    batch.deadline = row.value().deadline < 0 ? kNoDeadline : row.value().deadline;
  } else {
    auto row = decode_job_trace_row(fields, num_types_, row_index, row_start);
    if (!row.ok()) return row.error();
    slot = row.value().slot;
    batch.type = row.value().type;
    batch.count = row.value().count;
    // Annotations keep their "defer to the JobType" sentinels.
  }
  if (slot < next_) {
    return Error::make(
        "job trace row " + std::to_string(row_index) + " at " +
        row_start.to_string() + " is outside the reorder window (slot " +
        std::to_string(slot) + " already emitted, window " +
        std::to_string(options_.reorder_window) + ")");
  }
  max_seen_ = std::max(max_seen_, slot);
  auto [it, inserted] = pending_.try_emplace(slot);
  it->second.push_back(batch);
  if (inserted) high_water_ = std::max(high_water_, pending_.size());
  ++data_rows_;
  return {};
}

Result<bool> StreamingJobTraceSource::advance_to_next_slot() {
  if (error_) return *error_;
  // Parse until slot `next_` is provably complete (a row beyond
  // next_ + window has been seen) or the input ends.
  while (!reader_.eof() && max_seen_ <= next_ + options_.reorder_window) {
    if (Status st = reader_.pump(); !st.ok()) {
      error_ = std::make_unique<Error>(st.error());
      return *error_;
    }
  }
  if (reader_.eof() && data_rows_ == 0) {
    error_ = std::make_unique<Error>(
        rows_total_ == 0 ? Error::make("empty job trace")
                         : Error::make("job trace has no data rows"));
    return *error_;
  }
  if (next_ > max_seen_) return false;  // clean end of stream
  return true;
}

Result<bool> StreamingJobTraceSource::next_slot_into(
    std::vector<std::int64_t>& counts) {
  GREFAR_CHECK_MSG(emit_style_ != EmitStyle::kBatches,
                   "cannot mix next_slot_into with next_slot_batches_into");
  emit_style_ = EmitStyle::kCounts;
  auto ready = advance_to_next_slot();
  if (!ready.ok() || !ready.value()) return ready;
  counts.assign(num_types_, 0);
  auto it = pending_.begin();
  if (it != pending_.end() && it->first == next_) {
    // Densify: duplicate (slot, type) rows accumulate, matching the
    // materializing reader bit-for-bit.
    for (const ArrivalBatch& b : it->second) counts[b.type] += b.count;
    pending_.erase(it);
  }
  ++next_;
  return true;
}

Result<bool> StreamingJobTraceSource::next_slot_batches_into(
    std::vector<ArrivalBatch>& batches) {
  GREFAR_CHECK_MSG(emit_style_ != EmitStyle::kCounts,
                   "cannot mix next_slot_batches_into with next_slot_into");
  emit_style_ = EmitStyle::kBatches;
  auto ready = advance_to_next_slot();
  if (!ready.ok() || !ready.value()) return ready;
  batches.clear();
  auto it = pending_.begin();
  if (it != pending_.end() && it->first == next_) {
    batches.assign(it->second.begin(), it->second.end());
    pending_.erase(it);
  }
  ++next_;
  return true;
}

// ---------------------------------------------------------------------------
// StreamingPriceTraceSource

StreamingPriceTraceSource::StreamingPriceTraceSource(
    std::unique_ptr<std::istream> in, std::size_t num_dcs,
    StreamSourceOptions options)
    : num_dcs_(num_dcs),
      options_(options),
      reader_(std::move(in), "price trace", options_,
              [this](const std::vector<std::string>& fields,
                     std::uint64_t row_index, const CsvPosition& row_start) {
                return on_row(fields, row_index, row_start);
              }) {}

StreamingPriceTraceSource::StreamingPriceTraceSource(
    const std::string& path, std::size_t num_dcs, StreamSourceOptions options)
    : StreamingPriceTraceSource(
          std::make_unique<std::ifstream>(path, std::ios::binary), num_dcs,
          options) {
  if (!static_cast<std::ifstream&>(reader_.stream()).is_open()) {
    error_ = std::make_unique<Error>(Error::make("cannot open file: " + path));
  }
}

Status StreamingPriceTraceSource::on_row(
    const std::vector<std::string>& fields, std::uint64_t row_index,
    const CsvPosition& row_start) {
  ++rows_total_;
  if (row_index == 0) return check_price_trace_header(fields, row_start);
  auto row = decode_price_trace_row(fields, num_dcs_, row_index, row_start);
  if (!row.ok()) return row.error();
  const std::int64_t slot = row.value().slot;
  if (slot < next_) {
    return Error::make(
        "price trace row " + std::to_string(row_index) + " at " +
        row_start.to_string() + " is outside the reorder window (slot " +
        std::to_string(slot) + " already emitted, window " +
        std::to_string(options_.reorder_window) + ")");
  }
  max_seen_ = std::max(max_seen_, slot);
  auto [it, inserted] = pending_.try_emplace(slot);
  if (inserted) {
    it->second.prices.assign(num_dcs_, 0.0);
    it->second.seen.assign(num_dcs_, false);
    high_water_ = std::max(high_water_, pending_.size());
  }
  const std::size_t d = row.value().dc;
  it->second.prices[d] = row.value().price;  // duplicates: last wins
  if (!it->second.seen[d]) {
    it->second.seen[d] = true;
    ++it->second.seen_count;
  }
  ++data_rows_;
  return {};
}

Result<bool> StreamingPriceTraceSource::next_slot_into(
    std::vector<double>& prices) {
  if (error_) return *error_;
  while (!reader_.eof() && max_seen_ <= next_ + options_.reorder_window) {
    if (Status st = reader_.pump(); !st.ok()) {
      error_ = std::make_unique<Error>(st.error());
      return *error_;
    }
  }
  if (reader_.eof() && data_rows_ == 0 && num_dcs_ > 0) {
    error_ = std::make_unique<Error>(
        rows_total_ == 0
            ? Error::make("empty price trace")
            : Error::make("price trace missing data for dc 0"));
    return *error_;
  }
  if (next_ > max_seen_) return false;  // clean end of stream
  auto it = pending_.begin();
  if (it == pending_.end() || it->first != next_ ||
      it->second.seen_count != num_dcs_) {
    std::size_t missing_dc = 0;
    if (it != pending_.end() && it->first == next_) {
      while (missing_dc < num_dcs_ && it->second.seen[missing_dc]) {
        ++missing_dc;
      }
    }
    error_ = std::make_unique<Error>(Error::make(
        "price trace has a gap at slot " + std::to_string(next_) +
        " for dc " + std::to_string(missing_dc)));
    return *error_;
  }
  prices.assign(num_dcs_, 0.0);
  std::copy(it->second.prices.begin(), it->second.prices.end(),
            prices.begin());
  pending_.erase(it);
  ++next_;
  return true;
}

}  // namespace grefar

#include "trace/stream_source.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string_view>
#include <utility>

#include "util/check.h"
#include "util/strings.h"

namespace grefar {
namespace {

// ---------------------------------------------------------------------------
// Row decoders

constexpr std::array<std::string_view, 3> kCountsHeader{"slot", "type", "count"};
constexpr std::array<std::string_view, 6> kValuedHeader{
    "slot", "type", "count", "value", "decay", "deadline"};
constexpr std::array<std::string_view, 3> kPriceHeader{"slot", "dc", "price"};

/// The decoders' message for a slot at or beyond kMaxTraceSlots.
constexpr const char* kSlotBeyondLimit =
    " has slot beyond the trace limit (1048576 slots)";
static_assert(kMaxTraceSlots == 1048576, "kSlotBeyondLimit spells the limit out");

std::string row_tag(const char* kind, std::uint64_t row_index,
                    const CsvPosition& row_start) {
  return std::string(kind) + " trace row " + std::to_string(row_index) +
         " at " + row_start.to_string();
}

/// Classifies a job-trace header row as v1 or v2; fails (naming both
/// accepted headers and the byte position) on anything else.
Result<JobTraceSchema> detect_job_trace_header(CsvRow fields,
                                               const CsvPosition& row_start) {
  if (std::ranges::equal(fields, kCountsHeader)) return JobTraceSchema::kCounts;
  if (std::ranges::equal(fields, kValuedHeader)) return JobTraceSchema::kValued;
  return Error::make(
      "job trace must start with header 'slot,type,count' (v1) or "
      "'slot,type,count,value,decay,deadline' (v2) at " +
      row_start.to_string());
}

/// Decodes one job-trace data row into its slot and arrival batch. v2 is
/// v1 plus the value, decay and deadline fields; a v1 row never parses
/// them, and its batch keeps the "defer to the JobType" sentinels. Fails on
/// wrong arity, unparsable numbers, negative slot/count, a slot at or
/// beyond kMaxTraceSlots, a type id outside [0, num_types), and (v2)
/// non-finite or negative value/decay or a deadline below -1 — in that
/// order.
Result<std::pair<std::int64_t, ArrivalBatch>> decode_job_row(
    CsvRow fields, JobTraceSchema schema, std::size_t num_types,
    std::uint64_t row_index, const CsvPosition& row_start) {
  const auto fail = [&](const char* what) {
    return Error::make(row_tag("job", row_index, row_start) + what);
  };
  const bool valued = schema == JobTraceSchema::kValued;
  if (fields.size() != (valued ? 6u : 3u)) {
    return fail(valued ? " needs 6 fields (v2 schema)" : " needs 3 fields");
  }
  auto slot = parse_int(fields[0]);
  auto type = parse_int(fields[1]);
  auto count = parse_int(fields[2]);
  Result<double> value = 0.0;
  Result<double> decay = 0.0;
  Result<std::int64_t> deadline = std::int64_t{-1};
  if (valued) {
    value = parse_double(fields[3]);
    decay = parse_double(fields[4]);
    deadline = parse_int(fields[5]);
  }
  if (!slot.ok() || !type.ok() || !count.ok() || !value.ok() || !decay.ok() ||
      !deadline.ok()) {
    return fail(" is malformed");
  }
  if (slot.value() < 0 || count.value() < 0) return fail(" has negative value");
  if (slot.value() >= kMaxTraceSlots) return fail(kSlotBeyondLimit);
  if (type.value() < 0 ||
      static_cast<std::size_t>(type.value()) >= num_types) {
    return fail(" has out-of-range type id");
  }
  ArrivalBatch batch;
  batch.type = static_cast<std::size_t>(type.value());
  batch.count = count.value();
  if (valued) {
    if (!std::isfinite(value.value()) || value.value() < 0.0) {
      return fail(" has a non-finite or negative job value");
    }
    if (!std::isfinite(decay.value()) || decay.value() < 0.0) {
      return fail(" has a non-finite or negative decay rate");
    }
    if (deadline.value() < -1) {
      return fail(" has a deadline below -1 (-1 means no deadline)");
    }
    batch.value = value.value();
    batch.decay_rate = decay.value();
    batch.deadline = deadline.value() < 0 ? kNoDeadline : deadline.value();
  }
  return std::pair{slot.value(), batch};
}

/// Validates the mandatory "slot,dc,price" header row.
Status check_price_trace_header(CsvRow fields, const CsvPosition& row_start) {
  if (!std::ranges::equal(fields, kPriceHeader)) {
    return Error::make(
        "price trace must start with header 'slot,dc,price' at " +
        row_start.to_string());
  }
  return {};
}

struct PriceRow {
  std::int64_t slot = 0;
  std::size_t dc = 0;
  double price = 0.0;
};

/// Decodes one price-trace data row. Fails on wrong arity, unparsable
/// numbers, negative slot, a slot at or beyond kMaxTraceSlots, a dc id
/// outside [0, num_dcs), or a non-finite or non-positive price.
Result<PriceRow> decode_price_row(CsvRow fields, std::size_t num_dcs,
                                  std::uint64_t row_index,
                                  const CsvPosition& row_start) {
  const auto fail = [&](const char* what) {
    return Error::make(row_tag("price", row_index, row_start) + what);
  };
  if (fields.size() != 3) return fail(" needs 3 fields");
  auto slot = parse_int(fields[0]);
  auto dc = parse_int(fields[1]);
  auto price = parse_double(fields[2]);
  if (!slot.ok() || !dc.ok() || !price.ok()) return fail(" is malformed");
  if (slot.value() < 0) return fail(" has negative slot");
  if (slot.value() >= kMaxTraceSlots) return fail(kSlotBeyondLimit);
  if (dc.value() < 0 || static_cast<std::size_t>(dc.value()) >= num_dcs) {
    return fail(" has out-of-range dc id");
  }
  // from_chars accepts "nan", "inf" and "infinity": a non-finite price
  // would poison every energy sum downstream.
  if (!std::isfinite(price.value())) return fail(" has non-finite price");
  if (price.value() <= 0.0) return fail(" has non-positive price");
  return PriceRow{slot.value(), static_cast<std::size_t>(dc.value()),
                  price.value()};
}

/// A row for a slot the source has already emitted.
Error behind_window(const char* kind, std::uint64_t row_index,
                    const CsvPosition& row_start, std::int64_t slot,
                    std::int64_t window) {
  return Error::make(row_tag(kind, row_index, row_start) +
                     " is outside the reorder window (slot " +
                     std::to_string(slot) + " already emitted, window " +
                     std::to_string(window) + ")");
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceChunkReader

TraceChunkReader::TraceChunkReader(std::unique_ptr<std::istream> in,
                                   const char* what,
                                   const StreamSourceOptions& options,
                                   StreamCsvParser::RowCallback on_row)
    : in_(std::move(in)),
      what_(what),
      parser_(std::move(on_row)) {
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
              [this](CsvRow fields, std::uint64_t row_index,
                     const CsvPosition& row_start) {
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

Status StreamingJobTraceSource::on_row(CsvRow fields, std::uint64_t row_index,
                                       const CsvPosition& row_start) {
  ++rows_total_;
  if (row_index == 0) {
    header_start_ = row_start;
    auto schema = detect_job_trace_header(fields, row_start);
    if (!schema.ok()) return schema.error();
    schema_ = schema.value();
    return {};
  }
  auto row = decode_job_row(fields, schema_, num_types_, row_index, row_start);
  if (!row.ok()) return row.error();
  const auto& [slot, batch] = row.value();
  if (slot < next_) {
    return behind_window("job", row_index, row_start, slot,
                         options_.reorder_window);
  }
  max_seen_ = std::max(max_seen_, slot);
  auto [batches, added] = pending_.find_or_add(slot);
  if (added) {
    batches->clear();
    high_water_ = std::max(high_water_, pending_.size());
  }
  batches->push_back(batch);
  ++data_rows_;
  return {};
}

Result<bool> StreamingJobTraceSource::advance_to_next_slot() {
  if (error_) return *error_;
  // Parse until slot `next_` is provably complete (a row beyond
  // next_ + window has been seen) or the input ends. Written as a
  // difference so a whole-document window cannot overflow.
  while (!reader_.eof() && max_seen_ - next_ <= options_.reorder_window) {
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
  if (const auto* slot_batches = pending_.front(next_)) {
    // Densify: duplicate (slot, type) rows accumulate.
    for (const ArrivalBatch& b : *slot_batches) counts[b.type] += b.count;
    pending_.pop_front();
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
  if (auto* slot_batches = pending_.front(next_)) {
    batches.swap(*slot_batches);  // the old storage is recycled
    pending_.pop_front();
  } else {
    batches.clear();
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
              [this](CsvRow fields, std::uint64_t row_index,
                     const CsvPosition& row_start) {
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

Status StreamingPriceTraceSource::on_row(CsvRow fields,
                                         std::uint64_t row_index,
                                         const CsvPosition& row_start) {
  ++rows_total_;
  if (row_index == 0) return check_price_trace_header(fields, row_start);
  auto row = decode_price_row(fields, num_dcs_, row_index, row_start);
  if (!row.ok()) return row.error();
  const std::int64_t slot = row.value().slot;
  if (slot < next_) {
    return behind_window("price", row_index, row_start, slot,
                         options_.reorder_window);
  }
  max_seen_ = std::max(max_seen_, slot);
  auto [pending, added] = pending_.find_or_add(slot);
  if (added) {
    pending->prices.assign(num_dcs_, 0.0);
    pending->seen.assign(num_dcs_, false);
    pending->seen_count = 0;
    high_water_ = std::max(high_water_, pending_.size());
  }
  const std::size_t d = row.value().dc;
  pending->prices[d] = row.value().price;  // duplicates: last wins
  if (!pending->seen[d]) {
    pending->seen[d] = true;
    ++pending->seen_count;
  }
  ++data_rows_;
  return {};
}

Result<bool> StreamingPriceTraceSource::next_slot_into(
    std::vector<double>& prices) {
  if (error_) return *error_;
  while (!reader_.eof() && max_seen_ - next_ <= options_.reorder_window) {
    if (Status st = reader_.pump(); !st.ok()) {
      error_ = std::make_unique<Error>(st.error());
      return *error_;
    }
  }
  // A header-only trace is complete only when there are no DCs to price.
  if (reader_.eof() && data_rows_ == 0 && (rows_total_ == 0 || num_dcs_ > 0)) {
    error_ = std::make_unique<Error>(
        rows_total_ == 0
            ? Error::make("empty price trace")
            : Error::make("price trace missing data for dc 0"));
    return *error_;
  }
  if (next_ > max_seen_) return false;  // clean end of stream
  PendingSlot* pending = pending_.front(next_);
  if (pending == nullptr || pending->seen_count != num_dcs_) {
    std::size_t missing_dc = 0;
    if (pending != nullptr) {
      while (missing_dc < num_dcs_ && pending->seen[missing_dc]) ++missing_dc;
    }
    error_ = std::make_unique<Error>(Error::make(
        "price trace has a gap at slot " + std::to_string(next_) +
        " for dc " + std::to_string(missing_dc)));
    return *error_;
  }
  prices.swap(pending->prices);  // the old storage is recycled
  pending_.pop_front();
  ++next_;
  return true;
}

}  // namespace grefar

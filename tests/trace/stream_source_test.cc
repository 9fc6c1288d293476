#include "trace/stream_source.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "scenario/serve_scenario.h"
#include "trace/job_trace.h"
#include "trace/price_trace.h"
#include "util/check.h"

namespace grefar {
namespace {

std::unique_ptr<std::istream> stream_of(const std::string& text) {
  return std::make_unique<std::istringstream>(text);
}

/// Read sizes the equivalence sweeps run at: one byte, a prime that puts
/// read boundaries at shifting offsets inside rows, quoted fields and CRLF
/// pairs, a mid-size read, and the default.
const std::vector<std::size_t>& read_sizes() {
  static const std::vector<std::size_t> sizes = {
      1, 7, 1000, StreamSourceOptions{}.chunk_bytes};
  return sizes;
}

/// Equivalence-sweep options: a huge window removes the ordering
/// restriction the batch readers never had.
StreamSourceOptions wide_window(std::size_t chunk_bytes) {
  StreamSourceOptions options;
  options.reorder_window = 1 << 20;
  options.chunk_bytes = chunk_bytes;
  return options;
}

/// Drains a streaming job source; on success returns the emitted table.
Result<std::vector<std::vector<std::int64_t>>> drain_jobs(
    const std::string& csv, std::size_t num_types,
    StreamSourceOptions options = {}) {
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

Result<std::vector<std::vector<double>>> drain_prices(
    const std::string& csv, std::size_t num_dcs,
    StreamSourceOptions options = {}) {
  StreamingPriceTraceSource source(stream_of(csv), num_dcs, options);
  std::vector<std::vector<double>> by_slot;
  std::vector<double> prices;
  while (true) {
    auto more = source.next_slot_into(prices);
    if (!more.ok()) return more.error();
    if (!more.value()) break;
    by_slot.push_back(prices);
  }
  // Transpose to the materialized series[dc][t] layout for comparison.
  std::vector<std::vector<double>> series(num_dcs);
  for (std::size_t t = 0; t < by_slot.size(); ++t) {
    for (std::size_t d = 0; d < num_dcs; ++d) series[d].push_back(by_slot[t][d]);
  }
  return series;
}

/// Densifies a parsed batch trace to the count-table layout next_slot_into
/// emits (duplicate slot/type rows accumulate, absent slots go all-zero).
std::vector<std::vector<std::int64_t>> densify(const ValuedJobTrace& trace,
                                               std::size_t num_types) {
  std::vector<std::vector<std::int64_t>> table(
      trace.slots.size(), std::vector<std::int64_t>(num_types, 0));
  for (std::size_t t = 0; t < trace.slots.size(); ++t) {
    for (const ArrivalBatch& b : trace.slots[t]) table[t][b.type] += b.count;
  }
  return table;
}

/// The golden-equivalence contract: streaming and materialized readers agree
/// on success/failure, and bit-for-bit on the data when both succeed, at
/// every read size; failures agree on the message, byte offset included.
/// The streaming counts API accepts either schema version, so its
/// materialized counterpart is the valued reader densified; the v1-only
/// materializer must also agree except on v2 documents, which it rejects by
/// design (unknown header).
void expect_job_equivalence(const std::string& csv, std::size_t num_types) {
  auto valued = valued_job_trace_from_csv(csv, num_types);
  auto batch = job_trace_from_csv(csv, num_types);
  for (std::size_t chunk : read_sizes()) {
    SCOPED_TRACE("chunk_bytes " + std::to_string(chunk));
    auto streamed = drain_jobs(csv, num_types, wide_window(chunk));
    ASSERT_EQ(streamed.ok(), valued.ok()) << csv;
    if (valued.ok()) {
      EXPECT_EQ(streamed.value(), densify(valued.value(), num_types)) << csv;
    } else {
      EXPECT_EQ(streamed.error().message, valued.error().message) << csv;
    }
    if (valued.ok() && valued.value().schema == JobTraceSchema::kValued) {
      EXPECT_FALSE(batch.ok()) << csv;
    } else {
      ASSERT_EQ(batch.ok(), streamed.ok()) << csv;
      if (batch.ok()) {
        EXPECT_EQ(streamed.value(), batch.value()) << csv;
      }
    }
  }
}

/// Drains a streaming job source through the batch API; on success returns
/// the per-slot batches (the ValuedJobTrace::slots layout).
Result<std::vector<std::vector<ArrivalBatch>>> drain_batches(
    const std::string& csv, std::size_t num_types,
    StreamSourceOptions options = {}) {
  StreamingJobTraceSource source(stream_of(csv), num_types, options);
  std::vector<std::vector<ArrivalBatch>> slots;
  std::vector<ArrivalBatch> batches;
  while (true) {
    auto more = source.next_slot_batches_into(batches);
    if (!more.ok()) return more.error();
    if (!more.value()) return slots;
    slots.push_back(batches);
  }
}

void expect_batches_eq(const std::vector<std::vector<ArrivalBatch>>& a,
                       const std::vector<std::vector<ArrivalBatch>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].size(), b[t].size()) << "slot " << t;
    for (std::size_t k = 0; k < a[t].size(); ++k) {
      EXPECT_EQ(a[t][k].type, b[t][k].type);
      EXPECT_EQ(a[t][k].count, b[t][k].count);
      // Bit-for-bit incl. the NaN "defer to type" sentinel.
      EXPECT_TRUE(a[t][k].value == b[t][k].value ||
                  (std::isnan(a[t][k].value) && std::isnan(b[t][k].value)));
      EXPECT_TRUE(a[t][k].decay_rate == b[t][k].decay_rate ||
                  (std::isnan(a[t][k].decay_rate) &&
                   std::isnan(b[t][k].decay_rate)));
      EXPECT_EQ(a[t][k].deadline, b[t][k].deadline);
    }
  }
}

/// The valued golden-equivalence contract: the streaming batch API and the
/// materializing valued reader agree on success/failure and, when both
/// succeed, on every batch annotation — for either schema version.
void expect_valued_equivalence(const std::string& csv, std::size_t num_types) {
  auto batch = valued_job_trace_from_csv(csv, num_types);
  for (std::size_t chunk : read_sizes()) {
    SCOPED_TRACE("chunk_bytes " + std::to_string(chunk));
    auto streamed = drain_batches(csv, num_types, wide_window(chunk));
    ASSERT_EQ(streamed.ok(), batch.ok()) << csv;
    if (batch.ok()) {
      expect_batches_eq(streamed.value(), batch.value().slots);
    } else {
      EXPECT_EQ(streamed.error().message, batch.error().message) << csv;
    }
  }
}

/// Gap errors are worded per slot by the streaming source and per DC by the
/// batch reader, so price failures are compared across read sizes instead.
void expect_price_equivalence(const std::string& csv, std::size_t num_dcs) {
  auto batch = price_trace_from_csv(csv, num_dcs);
  std::string first_error;
  for (std::size_t chunk : read_sizes()) {
    SCOPED_TRACE("chunk_bytes " + std::to_string(chunk));
    auto streamed = drain_prices(csv, num_dcs, wide_window(chunk));
    ASSERT_EQ(streamed.ok(), batch.ok()) << csv;
    if (batch.ok()) {
      EXPECT_EQ(streamed.value(), batch.value()) << csv;
    } else if (first_error.empty()) {
      first_error = streamed.error().message;
    } else {
      EXPECT_EQ(streamed.error().message, first_error) << csv;
    }
  }
}

TEST(StreamingJobSource, EmitsSlotsInOrderWithZeroFill) {
  auto table = drain_jobs("slot,type,count\n0,1,2\n3,0,7\n", 2);
  ASSERT_TRUE(table.ok());
  // Slots 1 and 2 are absent from the file and must come back all-zero.
  EXPECT_EQ(table.value(),
            (std::vector<std::vector<std::int64_t>>{
                {0, 2}, {0, 0}, {0, 0}, {7, 0}}));
}

TEST(StreamingJobSource, DuplicateRowsAccumulate) {
  auto table = drain_jobs("slot,type,count\n0,0,1\n0,0,2\n", 1);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()[0][0], 3);
}

TEST(StreamingJobSource, ReorderWithinWindowMatchesBatch) {
  const std::string csv = "slot,type,count\n1,0,10\n0,0,5\n2,1,1\n";
  StreamSourceOptions options;
  options.reorder_window = 1;
  auto table = drain_jobs(csv, 2, options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value(), job_trace_from_csv(csv, 2).value());
}

TEST(StreamingJobSource, RowBehindWindowFailsWithOffset) {
  // Window 0: slots 0-2 are emitted before the parser reaches the final
  // row, whose slot-0 row then lands behind the window. Parsing runs only
  // as far as the pulled slot needs, so this holds at every read size.
  for (std::size_t chunk : read_sizes()) {
    StreamSourceOptions options;
    options.chunk_bytes = chunk;
    auto table = drain_jobs("slot,type,count\n2,0,1\n0,0,1\n", 1, options);
    ASSERT_FALSE(table.ok()) << "chunk_bytes " << chunk;
    EXPECT_EQ(table.error().message,
              "job trace row 2 at byte 22 (line 3, col 1) is outside the "
              "reorder window (slot 0 already emitted, window 0)");
  }
}

TEST(StreamingJobSource, HeaderOnlyIsNoDataRows) {
  auto table = drain_jobs("slot,type,count\n", 2);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.error().message, "job trace has no data rows");
}

TEST(StreamingJobSource, EmptyInputIsEmptyTrace) {
  auto table = drain_jobs("", 2);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.error().message, "empty job trace");
}

TEST(StreamingJobSource, ErrorsAreSticky) {
  StreamingJobTraceSource source(stream_of("slot,type,count\nx,0,1\n"), 1);
  std::vector<std::int64_t> counts;
  ASSERT_FALSE(source.next_slot_into(counts).ok());
  ASSERT_FALSE(source.next_slot_into(counts).ok());
}

TEST(StreamingJobSource, MissingFileSurfacesOnFirstPull) {
  StreamingJobTraceSource source("/nonexistent/grefar/jobs.csv", 2);
  std::vector<std::int64_t> counts;
  auto more = source.next_slot_into(counts);
  ASSERT_FALSE(more.ok());
  EXPECT_EQ(more.error().message,
            "cannot open file: /nonexistent/grefar/jobs.csv");
}

TEST(StreamingJobSource, BufferStaysWithinWindow) {
  // 64 slot-sorted slots at window 4 and a chunk smaller than one row: the
  // pending buffer must stay O(window), never O(trace).
  std::ostringstream os;
  os << "slot,type,count\n";
  for (int t = 0; t < 64; ++t) os << t << ",0," << (t % 3) << "\n";
  StreamSourceOptions options;
  options.reorder_window = 4;
  options.chunk_bytes = 8;
  StreamingJobTraceSource source(stream_of(os.str()), 1, options);
  std::vector<std::int64_t> counts;
  std::int64_t slots = 0;
  while (true) {
    auto more = source.next_slot_into(counts);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    ++slots;
  }
  EXPECT_EQ(slots, 64);
  EXPECT_LE(source.buffered_slots_high_water(), 6u);
}

TEST(StreamSources, ParsingStaysCloseBehindThePulledSlot) {
  // 240 slots in one default-size read: a source that parsed the whole
  // read at once would buffer every slot. Parsing a line at a time keeps
  // at most the window, the pulled slot and the one row past the window.
  constexpr int kSlots = 240;
  std::ostringstream jobs, prices;
  jobs << "slot,type,count\n";
  prices << "slot,dc,price\n";
  for (int t = 0; t < kSlots; ++t) {
    jobs << t << ",0,1\n" << t << ",1," << (t % 5) << "\n";
    prices << t << ",0,0.5\n" << t << ",1,0.25\n";
  }
  ASSERT_LT(jobs.str().size(), StreamSourceOptions{}.chunk_bytes);
  ASSERT_LT(prices.str().size(), StreamSourceOptions{}.chunk_bytes);
  for (std::int64_t window : {0, 3}) {
    SCOPED_TRACE("reorder_window " + std::to_string(window));
    StreamSourceOptions options;
    options.reorder_window = window;
    StreamingJobTraceSource job_source(stream_of(jobs.str()), 2, options);
    StreamingPriceTraceSource price_source(stream_of(prices.str()), 2, options);
    // The constructor parses the header only.
    EXPECT_EQ(job_source.buffered_slots_high_water(), 0u);
    std::vector<std::int64_t> counts;
    std::vector<double> price_row;
    int slots = 0;
    while (true) {
      auto more_jobs = job_source.next_slot_into(counts);
      auto more_prices = price_source.next_slot_into(price_row);
      ASSERT_TRUE(more_jobs.ok());
      ASSERT_TRUE(more_prices.ok());
      ASSERT_EQ(more_jobs.value(), more_prices.value());
      if (!more_jobs.value()) break;
      ++slots;
    }
    EXPECT_EQ(slots, kSlots);
    const auto bound = static_cast<std::size_t>(window) + 2;
    EXPECT_LE(job_source.buffered_slots_high_water(), bound);
    EXPECT_LE(price_source.buffered_slots_high_water(), bound);
  }
}

/// 30 slots of two job rows and two price rows each.
std::string thirty_slot_jobs() {
  std::ostringstream os;
  os << "slot,type,count\n";
  for (int t = 0; t < 30; ++t) os << t << ",0,1\n" << t << ",1,2\n";
  return os.str();
}

std::string thirty_slot_prices() {
  std::ostringstream os;
  os << "slot,dc,price\n";
  for (int t = 0; t < 30; ++t) os << t << ",0,0.5\n" << t << ",1,0.25\n";
  return os.str();
}

TEST(StreamSources, ErrorSurfacesAtTheFirstSlotThatNeedsTheRow) {
  // A malformed second row of slot k, and separately a missing price row
  // of slot k, both well inside the first default-size read. Slots 0..k-1
  // come out, then the error, with the batch reader's byte offset for the
  // malformed row — at any read size.
  constexpr int kBad = 20;
  std::string jobs = thirty_slot_jobs();
  const std::string good_row = std::to_string(kBad) + ",1,2\n";
  jobs.replace(jobs.find("\n" + good_row) + 1, good_row.size(),
               std::to_string(kBad) + ",1,x\n");
  const auto batch_error = job_trace_from_csv(jobs, 2);
  ASSERT_FALSE(batch_error.ok());
  std::string prices = thirty_slot_prices();
  const std::string gap_row = std::to_string(kBad) + ",1,0.25\n";
  prices.erase(prices.find("\n" + gap_row) + 1, gap_row.size());

  for (std::size_t chunk : {std::size_t{7}, StreamSourceOptions{}.chunk_bytes}) {
    SCOPED_TRACE("chunk_bytes " + std::to_string(chunk));
    StreamSourceOptions options;
    options.chunk_bytes = chunk;
    StreamingJobTraceSource job_source(stream_of(jobs), 2, options);
    StreamingPriceTraceSource price_source(stream_of(prices), 2, options);
    std::vector<std::int64_t> counts;
    std::vector<double> price_row;
    for (int t = 0; t < kBad; ++t) {
      auto more_jobs = job_source.next_slot_into(counts);
      ASSERT_TRUE(more_jobs.ok()) << "slot " << t << ": "
                                  << more_jobs.error().message;
      EXPECT_TRUE(more_jobs.value());
      auto more_prices = price_source.next_slot_into(price_row);
      ASSERT_TRUE(more_prices.ok()) << "slot " << t << ": "
                                    << more_prices.error().message;
      EXPECT_TRUE(more_prices.value());
    }
    auto bad_jobs = job_source.next_slot_into(counts);
    ASSERT_FALSE(bad_jobs.ok());
    EXPECT_EQ(bad_jobs.error().message, batch_error.error().message);
    auto bad_prices = price_source.next_slot_into(price_row);
    ASSERT_FALSE(bad_prices.ok());
    EXPECT_EQ(bad_prices.error().message,
              "price trace has a gap at slot 20 for dc 1");
  }
}

/// Hands out `text`, then fails the next read by throwing from the buffer,
/// which std::istream turns into badbit.
class FailingAfterBuf final : public std::streambuf {
 public:
  explicit FailingAfterBuf(std::string text) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 protected:
  int_type underflow() override { throw std::runtime_error("device gone"); }

 private:
  std::string text_;
};

class FailingAfterStream final : public std::istream {
 public:
  explicit FailingAfterStream(std::string text)
      : std::istream(nullptr), buf_(std::move(text)) {
    rdbuf(&buf_);
  }

 private:
  FailingAfterBuf buf_;
};

TEST(StreamSources, ReadErrorIsNotEndOfInput) {
  // A read that fails reports 0 bytes; it must surface as a read error, not
  // end the trace early. One-byte reads deliver every byte before the
  // failure, so the slots those bytes complete come out first; a default
  // read fails on the first read, before slot 0.
  for (std::size_t chunk : {std::size_t{1}, StreamSourceOptions{}.chunk_bytes}) {
    SCOPED_TRACE("chunk_bytes " + std::to_string(chunk));
    const bool small = chunk == 1;
    StreamSourceOptions options;
    options.chunk_bytes = chunk;
    StreamingJobTraceSource jobs(
        std::make_unique<FailingAfterStream>("slot,type,count\n0,0,1\n1,0,2\n"), 1,
        options);
    std::vector<std::int64_t> counts;
    if (small) {
      auto first = jobs.next_slot_into(counts);
      ASSERT_TRUE(first.ok()) << first.error().message;
      EXPECT_EQ(counts, std::vector<std::int64_t>{1});
    }
    auto failed = jobs.next_slot_into(counts);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error().message, "read error in job trace stream");

    StreamingPriceTraceSource prices(
        std::make_unique<FailingAfterStream>("slot,dc,price\n0,0,0.5\n1,0,0.25\n"), 1,
        options);
    std::vector<double> row;
    if (small) {
      auto first = prices.next_slot_into(row);
      ASSERT_TRUE(first.ok()) << first.error().message;
      EXPECT_EQ(row, std::vector<double>{0.5});
    }
    auto price_failed = prices.next_slot_into(row);
    ASSERT_FALSE(price_failed.ok());
    EXPECT_EQ(price_failed.error().message, "read error in price trace stream");
  }
}

TEST(StreamingJobSource, SchemaDetectedAtConstruction) {
  StreamingJobTraceSource v2(
      stream_of("slot,type,count,value,decay,deadline\n0,0,1,2.0,0.1,5\n"), 1);
  EXPECT_EQ(v2.schema(), JobTraceSchema::kValued);
  EXPECT_TRUE(v2.valued());
  StreamingJobTraceSource v1(stream_of("slot,type,count\n0,0,1\n"), 1);
  EXPECT_EQ(v1.schema(), JobTraceSchema::kCounts);
  EXPECT_FALSE(v1.valued());
}

TEST(StreamingJobSource, ValuedBatchesCarryAnnotationsAndZeroFillGaps) {
  auto slots = drain_batches(
      "slot,type,count,value,decay,deadline\n0,1,2,2.5,0.125,12\n2,0,1,0.5,0.0,-1\n",
      2);
  ASSERT_TRUE(slots.ok());
  ASSERT_EQ(slots.value().size(), 3u);
  ASSERT_EQ(slots.value()[0].size(), 1u);
  EXPECT_EQ(slots.value()[0][0].type, 1u);
  EXPECT_EQ(slots.value()[0][0].count, 2);
  EXPECT_EQ(slots.value()[0][0].value, 2.5);
  EXPECT_EQ(slots.value()[0][0].decay_rate, 0.125);
  EXPECT_EQ(slots.value()[0][0].deadline, 12);
  EXPECT_TRUE(slots.value()[1].empty());  // absent slot -> no batches
  EXPECT_EQ(slots.value()[2][0].deadline, kNoDeadline);  // -1 on disk
}

TEST(StreamingJobSource, CountsApiOnValuedTraceDropsAnnotations) {
  // next_slot_into works for either schema: on a v2 trace the counts must
  // match the materialized reader's, annotations simply dropped.
  const std::string csv =
      "slot,type,count,value,decay,deadline\n0,0,3,2.0,0.1,5\n0,0,2,9.0,0.0,-1\n1,1,1,1.0,0.0,-1\n";
  auto table = drain_jobs(csv, 2);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value(),
            (std::vector<std::vector<std::int64_t>>{{5, 0}, {0, 1}}));
}

TEST(StreamingJobSource, MixingEmitStylesIsContractViolation) {
  StreamingJobTraceSource source(
      stream_of("slot,type,count\n0,0,1\n1,0,1\n"), 1);
  std::vector<std::int64_t> counts;
  ASSERT_TRUE(source.next_slot_into(counts).ok());
  std::vector<ArrivalBatch> batches;
  EXPECT_THROW((void)source.next_slot_batches_into(batches),
               ContractViolation);
}

TEST(GoldenEquivalence, CuratedValuedDocs) {
  const std::size_t num_types = 3;
  for (const std::string& csv : {
           std::string("slot,type,count,value,decay,deadline\n0,0,1,2.0,0.1,5\n"),
           std::string("slot,type,count,value,decay,deadline\n"
                       "2,1,3,1.5,0.0,-1\n0,0,1,0.25,0.5,0\n1,2,4,3.0,0.2,7\n"),
           std::string("slot,type,count,value,decay,deadline\n"
                       "0,0,1,1.0,0.0,-1\n0,0,2,2.0,0.1,3\n"),  // dup slot/type
           std::string("slot,type,count,value,decay,deadline\r\n"
                       "1,1,1,1.0,0.0,-1\r\n0,0,1,2.0,0.0,4\r\n"),
           std::string("slot,type,count,value,decay,deadline\n0,0,1,2.0,0.1,5"),
           std::string("slot,type,count\n0,0,1\n1,2,3\n"),  // v1 via batch API
           std::string("slot,type,count,value,decay,deadline\n0,0,1\n"),
           std::string("slot,type,count,value,decay,deadline\n0,0,1,-1.0,0.0,-1\n"),
           std::string("slot,type,count,value,decay,deadline\n0,0,1,1.0,-0.1,-1\n"),
           std::string("slot,type,count,value,decay,deadline\n0,0,1,1.0,0.0,-2\n"),
           std::string("slot,type,count,value,decay,deadline\n0,9,1,1.0,0.0,-1\n"),
           std::string("slot,type,count,value,decay,deadline\n"),
       }) {
    expect_valued_equivalence(csv, num_types);
  }
}

TEST(StreamingPriceSource, EmitsPerSlotPrices) {
  auto series = drain_prices(
      "slot,dc,price\n0,0,0.4\n0,1,0.5\n1,0,0.6\n1,1,0.7\n", 2);
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series.value(),
            (std::vector<std::vector<double>>{{0.4, 0.6}, {0.5, 0.7}}));
}

TEST(StreamingPriceSource, GapFailsAtTheSlot) {
  auto series = drain_prices("slot,dc,price\n0,0,0.4\n1,1,0.5\n1,0,0.6\n", 2);
  ASSERT_FALSE(series.ok());
  EXPECT_EQ(series.error().message,
            "price trace has a gap at slot 0 for dc 1");
}

TEST(StreamingPriceSource, HeaderOnlyAndEmpty) {
  auto series = drain_prices("slot,dc,price\n", 1);
  ASSERT_FALSE(series.ok());
  EXPECT_EQ(series.error().message, "price trace missing data for dc 0");
  series = drain_prices("", 1);
  ASSERT_FALSE(series.ok());
  EXPECT_EQ(series.error().message, "empty price trace");
}

TEST(GoldenEquivalence, CuratedJobDocs) {
  const std::size_t num_types = 3;
  for (const std::string& csv : {
           std::string("slot,type,count\n0,0,1\n"),
           std::string("slot,type,count\n5,2,9\n"),          // leading zero slots
           std::string("slot,type,count\n0,0,1\n0,0,2\n2,1,3\n1,2,4\n"),
           std::string("slot,type,count\r\n1,1,1\r\n0,0,1\r\n"),
           std::string("slot,type,count\n0,0,1"),            // no trailing newline
           std::string("slot,type,count\nx,0,1\n"),          // malformed
           std::string("slot,type,count\n0,9,1\n"),          // type out of range
           std::string("slot,type,count\n-1,0,1\n"),
           std::string("slot,type,count\n"),
           std::string(""),
       }) {
    expect_job_equivalence(csv, num_types);
  }
}

TEST(GoldenEquivalence, CuratedPriceDocs) {
  const std::size_t num_dcs = 2;
  for (const std::string& csv : {
           std::string("slot,dc,price\n0,0,0.4\n0,1,0.5\n"),
           std::string("slot,dc,price\n0,1,0.5\n0,0,0.4\n1,1,0.7\n1,0,0.6\n"),
           std::string("slot,dc,price\n0,0,0.4\n0,0,0.45\n0,1,0.5\n"),  // dup
           std::string("slot,dc,price\n0,0,0.4\n"),          // gap for dc 1
           std::string("slot,dc,price\n0,0,0.4\n0,1,0\n"),   // non-positive
           std::string("slot,dc,price\n0,5,0.4\n"),          // dc out of range
           std::string("slot,dc,price\n"),
           std::string(""),
       }) {
    expect_price_equivalence(csv, num_dcs);
  }
}

TEST(GoldenEquivalence, FuzzCorpusFiles) {
  // Every checked-in fuzz seed doubles as a golden-equivalence input: the
  // streaming sources must agree with the materialized readers on all of
  // them (most are malformed — the agreement is "both reject").
  const std::filesystem::path root(GREFAR_TRACE_CORPUS_DIR);
  std::size_t files = 0;
  for (const auto& dir : {"fuzz_trace_readers", "fuzz_stream_csv"}) {
    if (!std::filesystem::exists(root / dir)) continue;
    for (const auto& entry : std::filesystem::directory_iterator(root / dir)) {
      std::ifstream in(entry.path(), std::ios::binary);
      std::stringstream ss;
      ss << in.rdbuf();
      const std::string csv = ss.str();
      SCOPED_TRACE(entry.path().string());
      expect_job_equivalence(csv, 4);
      expect_valued_equivalence(csv, 4);
      expect_price_equivalence(csv, 4);
      ++files;
    }
  }
  EXPECT_GT(files, 0u);
}

TEST(GoldenEquivalence, GeneratedServeTraces) {
  // End-to-end: the streamed writers produce files the streaming sources
  // read back bit-identically to the batch readers.
  PaperScenario scenario = make_serve_scenario(3, 12, /*seed=*/7);
  const std::string dir = ::testing::TempDir();
  std::string jobs_path, prices_path;
  ASSERT_TRUE(
      write_serve_traces(scenario, /*horizon=*/50, dir, jobs_path, prices_path)
          .ok());
  const auto read = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  expect_job_equivalence(read(jobs_path), scenario.config.num_job_types());
  expect_price_equivalence(read(prices_path),
                           scenario.config.num_data_centers());

  // And from the file path directly (the serve-mode entry point).
  StreamingJobTraceSource source(jobs_path, scenario.config.num_job_types());
  std::vector<std::int64_t> counts;
  std::int64_t slots = 0;
  while (true) {
    auto more = source.next_slot_into(counts);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    ++slots;
  }
  EXPECT_EQ(slots, 50);
}

}  // namespace
}  // namespace grefar

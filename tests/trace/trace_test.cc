#include "trace/job_trace.h"
#include "trace/price_trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "price/price_model.h"
#include "support/trace_text.h"
#include "trace/stream_source.h"
#include "util/check.h"
#include "util/csv.h"
#include "workload/arrival_process.h"

namespace grefar {
namespace {

TEST(JobTrace, MaterializeMatchesProcess) {
  ConstantArrivals a({2, 3});
  auto table = materialize_arrivals(a, 4);
  ASSERT_EQ(table.size(), 4u);
  EXPECT_EQ(table[2], (std::vector<std::int64_t>{2, 3}));
}

TEST(JobTrace, CsvRoundTrip) {
  std::vector<std::vector<std::int64_t>> counts{{1, 0, 2}, {0, 0, 0}, {0, 5, 1}};
  auto csv = job_trace_to_csv(counts);
  auto parsed = drain_jobs(csv, 3, kWholeDocument);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), counts);
}

TEST(JobTrace, SparseFormatOmitsZeros) {
  auto csv = job_trace_to_csv({{0, 0}, {1, 0}});
  // Only one data row expected.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

TEST(JobTrace, RejectsMissingHeader) {
  EXPECT_FALSE(drain_jobs("0,0,1\n", 2, kWholeDocument).ok());
  EXPECT_FALSE(drain_jobs("", 2, kWholeDocument).ok());
}

TEST(JobTrace, RejectsV2HeaderAtItsPosition) {
  // The counts reader takes v1 only. A dropped '\r' puts the header at
  // byte 1, and the refusal names that position.
  const std::string path = ::testing::TempDir() + "/grefar_v2_jobs.csv";
  ASSERT_TRUE(
      write_file(path, "\rslot,type,count,value,decay,deadline\n0,0,1,1,0,-1\n").ok());
  auto parsed = read_job_trace(path, 2);
  std::remove(path.c_str());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().message,
            "job trace must start with header 'slot,type,count' at byte 1 "
            "(line 1, col 2)");
}

TEST(JobTrace, MissingFileNamesThePath) {
  auto parsed = read_job_trace("/nonexistent/grefar/jobs.csv", 2);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().message,
            "cannot open file: /nonexistent/grefar/jobs.csv");
}

TEST(JobTrace, RejectsMalformedRows) {
  EXPECT_FALSE(drain_jobs("slot,type,count\n0,0\n", 2, kWholeDocument).ok());
  EXPECT_FALSE(drain_jobs("slot,type,count\nx,0,1\n", 2, kWholeDocument).ok());
  EXPECT_FALSE(drain_jobs("slot,type,count\n0,9,1\n", 2, kWholeDocument).ok());
  EXPECT_FALSE(drain_jobs("slot,type,count\n-1,0,1\n", 2, kWholeDocument).ok());
  EXPECT_FALSE(drain_jobs("slot,type,count\n0,0,-2\n", 2, kWholeDocument).ok());
  EXPECT_FALSE(drain_jobs("slot,type,count\n", 2, kWholeDocument).ok());
}

TEST(JobTrace, RejectsSlotBeyondLimit) {
  // One far-off row fails naming its row and byte, in both schema readers,
  // instead of making the drain zero-fill every slot before it.
  const std::string far = std::to_string(kMaxTraceSlots);
  auto counts =
      drain_jobs("slot,type,count\n0,0,1\n" + far + ",0,1\n", 1, kWholeDocument);
  ASSERT_FALSE(counts.ok());
  EXPECT_EQ(counts.error().message,
            "job trace row 2 at byte 22 (line 3, col 1) has slot beyond the "
            "trace limit (1048576 slots)");
  auto valued = drain_batches(
      "slot,type,count,value,decay,deadline\n0,0,1,1.0,0.0,-1\n" + far +
          ",0,1,1.0,0.0,-1\n",
      1, kWholeDocument);
  ASSERT_FALSE(valued.ok());
  EXPECT_EQ(valued.error().message,
            "job trace row 2 at byte 54 (line 3, col 1) has slot beyond the "
            "trace limit (1048576 slots)");
  // The last slot under the limit is a slot like any other: a window-0
  // source pulls slot 0 past it without materializing the span between.
  StreamingJobTraceSource source(
      std::make_unique<std::istringstream>(
          "slot,type,count\n0,0,1\n" + std::to_string(kMaxTraceSlots - 1) + ",0,1\n"),
      1);
  std::vector<std::int64_t> slot0;
  auto more = source.next_slot_into(slot0);
  ASSERT_TRUE(more.ok()) << more.error().message;
  EXPECT_TRUE(more.value());
  EXPECT_EQ(slot0, std::vector<std::int64_t>{1});
}

TEST(JobTrace, AccumulatesDuplicateEntries) {
  auto parsed = drain_jobs("slot,type,count\n0,0,1\n0,0,2\n", 1, kWholeDocument);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value()[0][0], 3);
}

TEST(JobTrace, RoundTripsThroughTableArrivals) {
  ConstantArrivals original({4, 1});
  auto table = materialize_arrivals(original, 8);
  auto csv = job_trace_to_csv(table);
  TableArrivals replayed(drain_jobs(csv, 2, kWholeDocument).value());
  for (std::int64_t t = 0; t < 8; ++t) {
    EXPECT_EQ(replayed.arrivals(t), original.arrivals(t));
  }
}

TEST(JobTrace, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/grefar_jobs.csv";
  std::vector<std::vector<std::int64_t>> counts{{1, 2}, {3, 4}};
  ASSERT_TRUE(write_job_trace(path, counts).ok());
  auto parsed = read_job_trace(path, 2);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), counts);
  std::remove(path.c_str());
}

TEST(ValuedJobTrace, CsvRoundTrip) {
  // Dyadic annotations survive the 6-decimal fixed-point format exactly.
  std::vector<std::vector<ArrivalBatch>> slots(3);
  slots[0] = {{.type = 0, .count = 3, .value = 2.5, .decay_rate = 0.125,
               .deadline = 12},
              {.type = 1, .count = 1, .value = 0.25, .decay_rate = 0.0,
               .deadline = kNoDeadline}};
  slots[2] = {{.type = 1, .count = 4, .value = 1.0, .decay_rate = 0.5,
               .deadline = 0}};
  const std::string csv = valued_job_trace_to_csv(slots);
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "slot,type,count,value,decay,deadline");
  auto parsed = drain_batches(csv, 2, kWholeDocument);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().schema, JobTraceSchema::kValued);
  ASSERT_EQ(parsed.value().slots.size(), 3u);
  EXPECT_TRUE(parsed.value().slots[1].empty());
  for (std::size_t t = 0; t < slots.size(); ++t) {
    ASSERT_EQ(parsed.value().slots[t].size(), slots[t].size()) << "slot " << t;
    for (std::size_t k = 0; k < slots[t].size(); ++k) {
      const ArrivalBatch& in = slots[t][k];
      const ArrivalBatch& out = parsed.value().slots[t][k];
      EXPECT_EQ(out.type, in.type);
      EXPECT_EQ(out.count, in.count);
      EXPECT_EQ(out.value, in.value);
      EXPECT_EQ(out.decay_rate, in.decay_rate);
      EXPECT_EQ(out.deadline, in.deadline);  // incl. kNoDeadline <-> -1
    }
  }
}

TEST(ValuedJobTrace, ReaderAcceptsV1WithDeferredAnnotations) {
  // A v1 document through the valued reader: batches keep the "defer to the
  // JobType" sentinels, so existing traces parse unchanged everywhere.
  auto parsed =
      drain_batches("slot,type,count\n0,0,2\n0,1,1\n", 2, kWholeDocument);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().schema, JobTraceSchema::kCounts);
  ASSERT_EQ(parsed.value().slots.size(), 1u);
  ASSERT_EQ(parsed.value().slots[0].size(), 2u);
  for (const ArrivalBatch& b : parsed.value().slots[0]) {
    EXPECT_TRUE(std::isnan(b.value));
    EXPECT_TRUE(std::isnan(b.decay_rate));
    EXPECT_EQ(b.deadline, kTypeDefaultDeadline);
  }
}

TEST(ValuedJobTrace, RejectsUnknownHeaderNamingBothVersions) {
  auto parsed = drain_batches("slot,count\n0,1\n", 2, kWholeDocument);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("'slot,type,count' (v1)"),
            std::string::npos);
  EXPECT_NE(
      parsed.error().message.find("'slot,type,count,value,decay,deadline' (v2)"),
      std::string::npos);
}

TEST(ValuedJobTrace, MalformedRowsFailWithByteOffsets) {
  const std::string header = "slot,type,count,value,decay,deadline\n";
  const struct {
    const char* row;
    const char* needle;
  } cases[] = {
      {"0,0,1\n", "needs 6 fields (v2 schema)"},
      {"0,0,1,abc,0.0,-1\n", "is malformed"},
      {"0,0,1,-2.0,0.0,-1\n", "non-finite or negative job value"},
      {"0,0,1,1.0,nan,-1\n", "non-finite or negative decay rate"},
      {"0,0,1,1.0,-0.5,-1\n", "non-finite or negative decay rate"},
      {"0,0,1,1.0,0.0,-2\n", "deadline below -1"},
      {"0,9,1,1.0,0.0,-1\n", "out-of-range type id"},
      {"-1,0,1,1.0,0.0,-1\n", "has negative value"},
  };
  for (const auto& c : cases) {
    auto parsed = drain_batches(header + c.row, 2, kWholeDocument);
    ASSERT_FALSE(parsed.ok()) << c.row;
    EXPECT_NE(parsed.error().message.find(c.needle), std::string::npos)
        << parsed.error().message;
    // Every diagnostic names the row's byte position: the data row starts
    // right after the 37-byte header.
    EXPECT_NE(parsed.error().message.find("at byte 37 (line 2, col 1)"),
              std::string::npos)
        << parsed.error().message;
  }
}

TEST(ValuedJobTrace, WriterRejectsDeferredSentinels) {
  // The sentinel "defer to type" encodings have no file representation:
  // writers must resolve JobType defaults first (contract-checked).
  std::vector<std::vector<ArrivalBatch>> nan_value(1);
  nan_value[0] = {{.type = 0, .count = 1}};  // value stays NaN
  EXPECT_THROW(valued_job_trace_to_csv(nan_value), ContractViolation);

  std::vector<std::vector<ArrivalBatch>> deferred_deadline(1);
  deferred_deadline[0] = {
      {.type = 0, .count = 1, .value = 1.0, .decay_rate = 0.0}};
  EXPECT_THROW(valued_job_trace_to_csv(deferred_deadline), ContractViolation);
}

TEST(ValuedJobTrace, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/grefar_valued_jobs.csv";
  std::vector<std::vector<ArrivalBatch>> slots(2);
  slots[1] = {{.type = 0, .count = 2, .value = 3.5, .decay_rate = 0.25,
               .deadline = 8}};
  ASSERT_TRUE(write_valued_job_trace(path, slots).ok());
  auto parsed = read_valued_job_trace(path, 1);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().slots.size(), 2u);
  ASSERT_EQ(parsed.value().slots[1].size(), 1u);
  EXPECT_EQ(parsed.value().slots[1][0].value, 3.5);
  EXPECT_EQ(parsed.value().slots[1][0].deadline, 8);
  std::remove(path.c_str());
}

TEST(PriceTrace, MaterializeAndRoundTrip) {
  ConstantPriceModel m({0.4, 0.5});
  auto series = materialize_prices(m, 3);
  ASSERT_EQ(series.size(), 2u);
  ASSERT_EQ(series[0].size(), 3u);
  auto csv = price_trace_to_csv(series);
  auto parsed = drain_prices(csv, 2, kWholeDocument);
  ASSERT_TRUE(parsed.ok());
  for (std::size_t dc = 0; dc < 2; ++dc) {
    for (std::size_t t = 0; t < 3; ++t) {
      EXPECT_NEAR(parsed.value()[dc][t], series[dc][t], 1e-6);
    }
  }
}

TEST(PriceTrace, RejectsGaps) {
  // dc 0 has slots 0 and 2 but not 1.
  EXPECT_FALSE(
      drain_prices("slot,dc,price\n0,0,0.4\n2,0,0.5\n", 1, kWholeDocument).ok());
}

TEST(PriceTrace, RejectsRaggedDcSeries) {
  // dc 0 has slots 0-2, dc 1 only 0-1: a table built from it would wrap
  // dc 1's series and price slot 2 at slot 0's 0.5.
  const std::string csv =
      "slot,dc,price\n0,0,0.4\n0,1,0.5\n1,0,0.45\n1,1,0.7\n2,0,0.6\n";
  auto parsed = drain_prices(csv, 2, kWholeDocument);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().message, "price trace has a gap at slot 2 for dc 1");

  std::string path = ::testing::TempDir() + "/grefar_ragged_prices.csv";
  ASSERT_TRUE(write_file(path, csv).ok());
  auto read = read_price_trace(path, 2);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.error().message, "price trace has a gap at slot 2 for dc 1");
  std::remove(path.c_str());
}

TEST(PriceTrace, RejectsSlotBeyondLimit) {
  auto parsed = drain_prices(
      "slot,dc,price\n0,0,0.5\n" + std::to_string(kMaxTraceSlots) + ",0,0.5\n", 1,
      kWholeDocument);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().message,
            "price trace row 2 at byte 22 (line 3, col 1) has slot beyond the "
            "trace limit (1048576 slots)");
}

TEST(PriceTrace, RejectsMalformed) {
  EXPECT_FALSE(drain_prices("", 1, kWholeDocument).ok());
  EXPECT_FALSE(drain_prices("bad,header,x\n", 1, kWholeDocument).ok());
  EXPECT_FALSE(drain_prices("slot,dc,price\n0,0\n", 1, kWholeDocument).ok());
  EXPECT_FALSE(drain_prices("slot,dc,price\n0,5,0.4\n", 1, kWholeDocument).ok());
  EXPECT_FALSE(drain_prices("slot,dc,price\n0,0,0\n", 1, kWholeDocument).ok());
  EXPECT_FALSE(drain_prices("slot,dc,price\n0,0,-0.5\n", 1, kWholeDocument).ok());
  EXPECT_FALSE(drain_prices("slot,dc,price\n", 1, kWholeDocument).ok());
}

TEST(PriceTrace, RoundTripsThroughTablePriceModel) {
  auto m = make_paper_price_model(1);
  auto series = materialize_prices(*m, 48);
  auto csv = price_trace_to_csv(series);
  TablePriceModel replayed(drain_prices(csv, 3, kWholeDocument).value());
  for (std::size_t dc = 0; dc < 3; ++dc) {
    for (std::int64_t t = 0; t < 48; ++t) {
      EXPECT_NEAR(replayed.price(dc, t), m->price(dc, t), 1e-6);
    }
  }
}

TEST(PriceTrace, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/grefar_prices.csv";
  std::vector<std::vector<double>> series{{0.4, 0.45}, {0.5, 0.55}};
  ASSERT_TRUE(write_price_trace(path, series).ok());
  auto parsed = read_price_trace(path, 2);
  ASSERT_TRUE(parsed.ok());
  EXPECT_NEAR(parsed.value()[1][1], 0.55, 1e-9);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace grefar

#include "serve/service_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <istream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "check/invariant_auditor.h"
#include "core/admission.h"
#include "core/grefar.h"
#include "scenario/paper_scenario.h"
#include "scenario/serve_scenario.h"
#include "trace/job_trace.h"
#include "trace/price_trace.h"
#include "util/check.h"
#include "util/rng.h"

namespace grefar {
namespace {

constexpr std::int64_t kHorizon = 30;

struct Fixture {
  PaperScenario scenario;
  std::shared_ptr<const ClusterConfig> config;
  std::string jobs_csv, prices_csv;

  Fixture() : scenario(make_serve_scenario(2, 6, /*seed=*/11)) {
    config = std::make_shared<const ClusterConfig>(scenario.config);
    jobs_csv =
        job_trace_to_csv(materialize_arrivals(*scenario.arrivals, kHorizon));
    prices_csv =
        price_trace_to_csv(materialize_prices(*scenario.prices, kHorizon));
  }

  std::shared_ptr<GreFarScheduler> make_scheduler() const {
    return std::make_shared<GreFarScheduler>(config,
                                             paper_grefar_params(2.0, 0.5));
  }

  std::unique_ptr<ServiceLoop> make_loop(ServiceLoopOptions options) const {
    auto jobs = std::make_unique<StreamingJobTraceSource>(
        std::make_unique<std::istringstream>(jobs_csv),
        config->num_job_types());
    auto prices = std::make_unique<StreamingPriceTraceSource>(
        std::make_unique<std::istringstream>(prices_csv),
        config->num_data_centers());
    return std::make_unique<ServiceLoop>(config, scenario.availability,
                                         make_scheduler(), std::move(jobs),
                                         std::move(prices), options);
  }
};

/// Records what a flush inspector observes: slot order plus the routed
/// matrices (the decisions), copied out of each record.
class RecordingInspector final : public SlotInspector {
 public:
  explicit RecordingInspector(std::vector<std::string>* journal = nullptr,
                              std::string tag = {})
      : journal_(journal), tag_(std::move(tag)) {}

  void inspect(const SlotRecord& record) override {
    slots.push_back(record.slot);
    routed.push_back(*record.routed);
    energy = 0.0;
    for (double c : *record.dc_energy_cost) energy += c;
    if (journal_ != nullptr) {
      journal_->push_back(tag_ + ":" + std::to_string(record.slot));
    }
  }

  std::vector<std::int64_t> slots;
  std::vector<MatrixD> routed;
  double energy = 0.0;

 private:
  std::vector<std::string>* journal_;
  std::string tag_;
};

class ThrowingInspector final : public SlotInspector {
 public:
  explicit ThrowingInspector(std::int64_t at) : at_(at) {}
  void inspect(const SlotRecord& record) override {
    if (record.slot == at_) throw std::runtime_error("inspector boom");
  }

 private:
  std::int64_t at_;
};

void expect_bitwise_equal(const SimMetrics& a, const SimMetrics& b) {
  ASSERT_EQ(a.slots(), b.slots());
  for (std::size_t t = 0; t < a.slots(); ++t) {
    EXPECT_EQ(a.energy_cost.values()[t], b.energy_cost.values()[t]) << t;
    EXPECT_EQ(a.fairness.values()[t], b.fairness.values()[t]) << t;
    EXPECT_EQ(a.total_queue_jobs.values()[t], b.total_queue_jobs.values()[t])
        << t;
  }
  EXPECT_EQ(a.account_work_total, b.account_work_total);
}

/// The batch reference: materialized table models through the plain engine,
/// with a recording inspector capturing the per-slot decisions.
struct BatchRun {
  std::unique_ptr<SimulationEngine> engine;
  std::shared_ptr<RecordingInspector> recorder;
};

BatchRun run_batch(const Fixture& f) {
  BatchRun out;
  auto arrivals = std::make_shared<TableArrivals>(
      job_trace_from_csv(f.jobs_csv, f.config->num_job_types()).value());
  auto prices = std::make_shared<TablePriceModel>(
      price_trace_from_csv(f.prices_csv, f.config->num_data_centers()).value());
  out.engine = std::make_unique<SimulationEngine>(
      f.config, prices, f.scenario.availability, arrivals, f.make_scheduler());
  out.recorder = std::make_shared<RecordingInspector>();
  out.engine->set_inspector(out.recorder);
  out.engine->run(kHorizon);
  return out;
}

TEST(ServiceLoop, BitIdenticalToBatchAtEveryQueueDepth) {
  Fixture f;
  BatchRun batch = run_batch(f);

  for (std::size_t depth : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (bool pipelined : {false, true}) {
      ServiceLoopOptions options;
      options.queue_depth = depth;
      options.pipelined = pipelined;
      auto loop = f.make_loop(options);
      auto recorder = std::make_shared<RecordingInspector>();
      loop->add_flush_inspector(recorder);
      auto stats = loop->run();
      ASSERT_TRUE(stats.ok()) << stats.error().message;
      EXPECT_EQ(stats.value().slots, kHorizon);
      expect_bitwise_equal(loop->metrics(), batch.engine->metrics());
      // Decisions, not just aggregates: every routed matrix bit-identical,
      // observed by the flush inspector in slot order.
      ASSERT_EQ(recorder->slots.size(), batch.recorder->slots.size());
      for (std::size_t t = 0; t < recorder->slots.size(); ++t) {
        EXPECT_EQ(recorder->slots[t], static_cast<std::int64_t>(t));
        EXPECT_EQ(recorder->routed[t], batch.recorder->routed[t])
            << "depth=" << depth << " pipelined=" << pipelined << " t=" << t;
      }
    }
  }
}

/// A v2 fixture: the serve-scenario cluster with decay curves switched on,
/// plus a deterministic annotated arrival table serialized to the v2 trace
/// format. Every annotation is concrete, so the batch reference
/// (ValuedTableArrivals) and the streamed v2 trace describe the same
/// workload exactly.
struct ValuedFixture {
  PaperScenario scenario;
  std::shared_ptr<const ClusterConfig> config;
  std::vector<std::vector<ArrivalBatch>> slots;
  std::string jobs_csv, prices_csv;

  ValuedFixture() : scenario(make_serve_scenario(2, 6, /*seed=*/11)) {
    for (std::size_t j = 0; j < scenario.config.job_types.size(); ++j) {
      scenario.config.job_types[j].decay =
          j % 2 == 0 ? DecayKind::kExponential : DecayKind::kLinear;
    }
    config = std::make_shared<const ClusterConfig>(scenario.config);
    Rng root(0xF00DULL);
    slots.resize(static_cast<std::size_t>(kHorizon));
    for (std::int64_t t = 0; t < kHorizon; ++t) {
      Rng r = root.fork(t);
      for (std::size_t j = 0; j < config->job_types.size(); ++j) {
        ArrivalBatch b;
        b.type = j;
        b.count = r.poisson(2.0);
        b.value = r.uniform(0.5, 3.0) * config->job_types[j].work;
        b.decay_rate = r.uniform(0.0, 0.2);
        b.deadline = r.bernoulli(0.5) ? r.uniform_int(2, 10) : kNoDeadline;
        if (b.count > 0) slots[static_cast<std::size_t>(t)].push_back(b);
      }
    }
    // Pin the trace span to [0, kHorizon) even if the last slot is idle.
    if (slots.back().empty()) {
      slots.back().push_back({.type = 0,
                              .count = 1,
                              .value = 1.0,
                              .decay_rate = 0.0,
                              .deadline = kNoDeadline});
    }
    jobs_csv = valued_job_trace_to_csv(slots);
    prices_csv =
        price_trace_to_csv(materialize_prices(*scenario.prices, kHorizon));
  }

  std::shared_ptr<GreFarScheduler> make_scheduler() const {
    return std::make_shared<GreFarScheduler>(config,
                                             paper_grefar_params(2.0, 0.5));
  }

  std::unique_ptr<ServiceLoop> make_loop(ServiceLoopOptions options) const {
    auto jobs = std::make_unique<StreamingJobTraceSource>(
        std::make_unique<std::istringstream>(jobs_csv),
        config->num_job_types());
    auto prices = std::make_unique<StreamingPriceTraceSource>(
        std::make_unique<std::istringstream>(prices_csv),
        config->num_data_centers());
    return std::make_unique<ServiceLoop>(config, scenario.availability,
                                         make_scheduler(), std::move(jobs),
                                         std::move(prices), options);
  }

  std::unique_ptr<SimulationEngine> run_batch(
      std::shared_ptr<AdmissionPolicy> admission = nullptr) const {
    // Parse the same serialized trace the loop streams (the writer's fixed
    // 6-decimal format rounds annotations, so the in-memory table would
    // differ from the file in the last ulp).
    auto arrivals = std::make_shared<ValuedTableArrivals>(
        valued_job_trace_from_csv(jobs_csv, config->num_job_types())
            .value()
            .slots,
        config->num_job_types());
    auto prices = std::make_shared<TablePriceModel>(
        price_trace_from_csv(prices_csv, config->num_data_centers()).value());
    auto engine = std::make_unique<SimulationEngine>(
        config, prices, scenario.availability, arrivals, make_scheduler());
    if (admission != nullptr) engine->set_admission_policy(admission);
    engine->run(kHorizon);
    return engine;
  }
};

void expect_value_ledger_equal(const SimMetrics& a, const SimMetrics& b) {
  ASSERT_EQ(a.slots(), b.slots());
  for (std::size_t t = 0; t < a.slots(); ++t) {
    EXPECT_EQ(a.realized_value.values()[t], b.realized_value.values()[t]) << t;
    EXPECT_EQ(a.admitted_value.values()[t], b.admitted_value.values()[t]) << t;
    EXPECT_EQ(a.rejected_value.values()[t], b.rejected_value.values()[t]) << t;
    EXPECT_EQ(a.abandoned_value.values()[t], b.abandoned_value.values()[t]) << t;
    EXPECT_EQ(a.abandoned_jobs.values()[t], b.abandoned_jobs.values()[t]) << t;
    EXPECT_EQ(a.decay_loss.values()[t], b.decay_loss.values()[t]) << t;
    EXPECT_EQ(a.rejected_jobs.values()[t], b.rejected_jobs.values()[t]) << t;
  }
}

TEST(ServiceLoop, ValuedTraceBitIdenticalToBatchSerialAndPipelined) {
  ValuedFixture f;
  auto batch = f.run_batch();
  // The workload must actually exercise the v2 machinery.
  EXPECT_GT(batch->metrics().total_realized_value(), 0.0);
  EXPECT_GT(batch->metrics().abandoned_jobs.sum(), 0.0);
  EXPECT_GT(batch->metrics().decay_loss.sum(), 0.0);

  for (bool pipelined : {false, true}) {
    ServiceLoopOptions options;
    options.pipelined = pipelined;
    auto loop = f.make_loop(options);
    InvariantAuditorOptions audit;
    audit.throw_on_violation = true;
    auto auditor = std::make_shared<InvariantAuditor>(*f.config, audit);
    loop->add_flush_inspector(auditor);
    auto stats = loop->run();
    ASSERT_TRUE(stats.ok()) << stats.error().message;
    EXPECT_EQ(stats.value().slots, kHorizon);
    EXPECT_TRUE(auditor->ok());
    expect_bitwise_equal(loop->metrics(), batch->metrics());
    expect_value_ledger_equal(loop->metrics(), batch->metrics());
  }
}

TEST(ServiceLoop, AdmissionPolicyMatchesBatchEngine) {
  ValuedFixture f;
  auto admission = std::make_shared<ThresholdAdmission>(1.5);
  auto batch = f.run_batch(admission);
  EXPECT_GT(batch->metrics().rejected_jobs.sum(), 0.0);

  for (bool pipelined : {false, true}) {
    ServiceLoopOptions options;
    options.pipelined = pipelined;
    options.admission = std::make_shared<ThresholdAdmission>(1.5);
    auto loop = f.make_loop(options);
    auto stats = loop->run();
    ASSERT_TRUE(stats.ok()) << stats.error().message;
    expect_bitwise_equal(loop->metrics(), batch->metrics());
    expect_value_ledger_equal(loop->metrics(), batch->metrics());
  }
}

TEST(ServiceLoop, FlushInspectorsRunInRegistrationOrder) {
  Fixture f;
  ServiceLoopOptions options;
  options.queue_depth = 2;
  auto loop = f.make_loop(options);
  std::vector<std::string> journal;
  loop->add_flush_inspector(
      std::make_shared<RecordingInspector>(&journal, "first"));
  loop->add_flush_inspector(
      std::make_shared<RecordingInspector>(&journal, "second"));
  ASSERT_TRUE(loop->run().ok());
  ASSERT_EQ(journal.size(), 2u * kHorizon);
  for (std::int64_t t = 0; t < kHorizon; ++t) {
    EXPECT_EQ(journal[static_cast<std::size_t>(2 * t)],
              "first:" + std::to_string(t));
    EXPECT_EQ(journal[static_cast<std::size_t>(2 * t + 1)],
              "second:" + std::to_string(t));
  }
}

TEST(ServiceLoop, InvariantAuditorRidesTheFlushStage) {
  Fixture f;
  auto loop = f.make_loop({});
  InvariantAuditorOptions audit;
  audit.throw_on_violation = true;
  auto auditor = std::make_shared<InvariantAuditor>(*f.config, audit);
  loop->add_flush_inspector(auditor);
  auto stats = loop->run();
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  EXPECT_EQ(auditor->slots_audited(), kHorizon);
  EXPECT_TRUE(auditor->ok());
}

TEST(ServiceLoop, ThrowingFlushInspectorSurfacesAsError) {
  Fixture f;
  for (bool pipelined : {false, true}) {
    ServiceLoopOptions options;
    options.pipelined = pipelined;
    auto loop = f.make_loop(options);
    loop->add_flush_inspector(std::make_shared<ThrowingInspector>(5));
    auto stats = loop->run();
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.error().message,
              "flush inspector failed at slot 5: inspector boom");
  }
}

TEST(ServiceLoop, IngestErrorSurfacesWithByteOffset) {
  Fixture f;
  for (bool pipelined : {false, true}) {
    // Corrupt one byte mid-trace: the error must name the row's position.
    std::string bad = f.jobs_csv;
    bad[bad.find("\n3,") + 1] = 'x';
    auto jobs = std::make_unique<StreamingJobTraceSource>(
        std::make_unique<std::istringstream>(bad), f.config->num_job_types());
    auto prices = std::make_unique<StreamingPriceTraceSource>(
        std::make_unique<std::istringstream>(f.prices_csv),
        f.config->num_data_centers());
    ServiceLoopOptions options;
    options.pipelined = pipelined;
    ServiceLoop loop(f.config, f.scenario.availability, f.make_scheduler(),
                     std::move(jobs), std::move(prices), options);
    auto stats = loop.run();
    ASSERT_FALSE(stats.ok());
    EXPECT_NE(stats.error().message.find("at byte"), std::string::npos)
        << stats.error().message;
  }
}

TEST(ServiceLoop, IngestErrorSurfacesAtTheSlotThatNeedsTheRow) {
  // A malformed job row at slot k (after a good one, so slot k-1 is
  // complete without it), and separately a price gap at slot k, both well
  // inside the first default-size read. Serial and pipelined loops serve
  // slots 0..k-1, flush them, then fail with the reader's own message —
  // for the job row, the batch reader's byte offset — at any read size.
  Fixture f;
  constexpr std::int64_t kBad = 20;
  auto table = materialize_arrivals(*f.scenario.arrivals, kHorizon);
  table[kBad][0] = std::max<std::int64_t>(table[kBad][0], 1);
  const std::string clean_jobs = job_trace_to_csv(table);
  const std::string first_row = "\n" + std::to_string(kBad) + ",0,";
  const std::size_t row_end =
      clean_jobs.find('\n', clean_jobs.find(first_row) + 1) + 1;
  std::string bad_jobs = clean_jobs;
  bad_jobs.insert(row_end, std::to_string(kBad) + ",1,x\n");
  const auto batch_error = job_trace_from_csv(bad_jobs, f.config->num_job_types());
  ASSERT_FALSE(batch_error.ok());
  std::string gap_prices = f.prices_csv;
  const std::string gap_row = "\n" + std::to_string(kBad) + ",1,";
  const std::size_t gap_start = gap_prices.find(gap_row) + 1;
  gap_prices.erase(gap_start, gap_prices.find('\n', gap_start) + 1 - gap_start);

  struct Case {
    const char* name;
    const std::string* jobs;
    const std::string* prices;
    std::string error;
  };
  const Case cases[] = {
      {"malformed job row", &bad_jobs, &f.prices_csv, batch_error.error().message},
      {"price gap", &clean_jobs, &gap_prices,
       "price trace has a gap at slot 20 for dc 1"},
  };
  for (const Case& c : cases) {
    for (std::size_t chunk : {std::size_t{7}, StreamSourceOptions{}.chunk_bytes}) {
      for (bool pipelined : {false, true}) {
        SCOPED_TRACE(std::string(c.name) + ", chunk_bytes " +
                     std::to_string(chunk) + (pipelined ? ", pipelined" : ", serial"));
        StreamSourceOptions source_options;
        source_options.chunk_bytes = chunk;
        auto jobs = std::make_unique<StreamingJobTraceSource>(
            std::make_unique<std::istringstream>(*c.jobs),
            f.config->num_job_types(), source_options);
        auto prices = std::make_unique<StreamingPriceTraceSource>(
            std::make_unique<std::istringstream>(*c.prices),
            f.config->num_data_centers(), source_options);
        ServiceLoopOptions options;
        options.pipelined = pipelined;
        ServiceLoop loop(f.config, f.scenario.availability, f.make_scheduler(),
                         std::move(jobs), std::move(prices), options);
        auto recorder = std::make_shared<RecordingInspector>();
        loop.add_flush_inspector(recorder);
        auto stats = loop.run();
        ASSERT_FALSE(stats.ok());
        EXPECT_EQ(stats.error().message, c.error);
        EXPECT_EQ(loop.slots_processed(), kBad);
        std::vector<std::int64_t> expected(kBad);
        for (std::int64_t t = 0; t < kBad; ++t) expected[t] = t;
        EXPECT_EQ(recorder->slots, expected);
      }
    }
  }
}

TEST(ServiceLoop, MaxSlotsStopsEarly) {
  Fixture f;
  ServiceLoopOptions options;
  options.max_slots = 7;
  auto loop = f.make_loop(options);
  auto stats = loop->run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().slots, 7);
  EXPECT_EQ(loop->slots_processed(), 7);
  EXPECT_EQ(loop->metrics().slots(), 7u);
}

TEST(ServiceLoop, RunIsSingleShot) {
  Fixture f;
  auto loop = f.make_loop({});
  ASSERT_TRUE(loop->run().ok());
  EXPECT_THROW((void)loop->run(), ContractViolation);
}

/// Hands out `text` a few bytes per underflow, sleeping before each: an
/// ingest stage slow enough that the solve stage must wait for it.
class SlowStreamBuf final : public std::streambuf {
 public:
  explicit SlowStreamBuf(std::string text) : text_(std::move(text)) {}

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (pos_ >= text_.size()) return traits_type::eof();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    char* begin = text_.data() + pos_;
    const std::size_t n = std::min<std::size_t>(16, text_.size() - pos_);
    pos_ += n;
    setg(begin, begin, begin + n);
    return traits_type::to_int_type(*begin);
  }

 private:
  std::string text_;
  std::size_t pos_ = 0;
};

class SlowStream final : public std::istream {
 public:
  explicit SlowStream(std::string text) : std::istream(nullptr), buf_(std::move(text)) {
    rdbuf(&buf_);
  }

 private:
  SlowStreamBuf buf_;
};

TEST(ServiceLoop, IngestWaitIsTimedInPipelinedMode) {
  Fixture f;
  StreamSourceOptions slow_reads;
  slow_reads.chunk_bytes = 16;  // one sleep per read, spread over the run
  for (bool pipelined : {false, true}) {
    auto jobs = std::make_unique<StreamingJobTraceSource>(
        std::make_unique<SlowStream>(f.jobs_csv), f.config->num_job_types(),
        slow_reads);
    auto prices = std::make_unique<StreamingPriceTraceSource>(
        std::make_unique<std::istringstream>(f.prices_csv),
        f.config->num_data_centers());
    ServiceLoopOptions options;
    options.pipelined = pipelined;
    ServiceLoop loop(f.config, f.scenario.availability, f.make_scheduler(),
                     std::move(jobs), std::move(prices), options);
    auto stats = loop.run();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().slots, kHorizon);
    if (!pipelined) {
      // Serial mode has no input queue; its ingest runs inline.
      EXPECT_EQ(stats.value().ingest_wait_ms, 0.0);
      continue;
    }
    EXPECT_GT(stats.value().ingest_stalls, 0u);
    EXPECT_GT(stats.value().ingest_wait_ms, 0.0);
    EXPECT_LE(stats.value().ingest_wait_ms, stats.value().wall_seconds * 1e3);
  }
}

TEST(ServiceLoop, StatsReportLatencyAndThroughput) {
  Fixture f;
  auto loop = f.make_loop({});
  auto stats = loop->run();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.value().slots_per_second, 0.0);
  EXPECT_GT(stats.value().wall_seconds, 0.0);
  EXPECT_GE(stats.value().latency_max_ms, 0.0);
  // P2 estimates are only defined once slots ran; 30 slots is plenty.
  EXPECT_FALSE(std::isnan(stats.value().latency_p50_ms));
  EXPECT_FALSE(std::isnan(stats.value().latency_p99_ms));
}

}  // namespace
}  // namespace grefar

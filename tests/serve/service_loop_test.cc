#include "serve/service_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/invariant_auditor.h"
#include "core/admission.h"
#include "core/grefar.h"
#include "obs/trace_sink.h"
#include "obs/tracing_inspector.h"
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

  explicit Fixture(std::size_t dcs = 2, std::size_t types = 6,
                   std::int64_t horizon = kHorizon)
      : scenario(make_serve_scenario(dcs, types, /*seed=*/11)) {
    config = std::make_shared<const ClusterConfig>(scenario.config);
    jobs_csv =
        job_trace_to_csv(materialize_arrivals(*scenario.arrivals, horizon));
    prices_csv =
        price_trace_to_csv(materialize_prices(*scenario.prices, horizon));
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

  // With no flush inspector nothing reads a slot record: the engine runs
  // uninspected and nothing is queued, and the metrics stay bitwise equal.
  for (bool pipelined : {false, true}) {
    SCOPED_TRACE(pipelined ? "pipelined, no flush inspector"
                           : "serial, no flush inspector");
    ServiceLoopOptions options;
    options.pipelined = pipelined;
    auto loop = f.make_loop(options);
    auto stats = loop->run();
    ASSERT_TRUE(stats.ok()) << stats.error().message;
    EXPECT_EQ(stats.value().slots, kHorizon);
    EXPECT_EQ(stats.value().flush_queue_high_water, 0u);
    expect_bitwise_equal(loop->metrics(), batch.engine->metrics());
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

// A slot log on a full device ends the run at the slot whose record spills
// the sink's first 64 KiB chunk, in both modes, with an error naming the
// slot and the path. Records too small to fill a chunk fail when the loop
// finishes its inspectors after the last slot, with an error naming the
// path.
TEST(ServiceLoop, FailedSlotLogWriteSurfacesAsError) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const auto slot_log = [] {
    return std::make_shared<obs::TracingInspector>(
        std::make_shared<obs::TraceSink>(obs::TraceSink::Options{"/dev/full"}));
  };
  const Fixture large(/*dcs=*/6, /*types=*/64, /*horizon=*/60);
  const Fixture small;  // make_serve_scenario(2, 6, 11), 30 slots
  for (bool pipelined : {false, true}) {
    SCOPED_TRACE(pipelined ? "pipelined" : "serial");
    ServiceLoopOptions options;
    options.pipelined = pipelined;
    auto loop = large.make_loop(options);
    loop->add_flush_inspector(slot_log());
    auto stats = loop->run();
    ASSERT_FALSE(stats.ok());
    const std::string& message = stats.error().message;
    EXPECT_EQ(message.rfind("flush inspector failed at slot ", 0), 0u) << message;
    EXPECT_NE(message.find("'/dev/full'"), std::string::npos) << message;
    EXPECT_LT(loop->slots_processed(), 60);

    auto small_loop = small.make_loop(options);
    small_loop->add_flush_inspector(slot_log());
    auto small_stats = small_loop->run();
    ASSERT_FALSE(small_stats.ok());
    const std::string& tail_message = small_stats.error().message;
    EXPECT_EQ(tail_message.rfind("flush inspector failed to finish after 30 slots: ", 0),
              0u)
        << tail_message;
    EXPECT_NE(tail_message.find("'/dev/full'"), std::string::npos) << tail_message;
    EXPECT_EQ(small_loop->slots_processed(), kHorizon);
  }
}

/// GreFar, except that deciding slot `at` throws — a solve-stage fault
/// (engine contract violations surface the same way).
class ThrowingScheduler final : public Scheduler {
 public:
  ThrowingScheduler(std::shared_ptr<Scheduler> inner, std::int64_t at)
      : inner_(std::move(inner)), at_(at) {}

  SlotAction decide(const SlotObservation& obs) override {
    SlotAction out;
    decide_into(obs, out, nullptr);
    return out;
  }
  void decide_into(const SlotObservation& obs, SlotAction& out,
                   TraceScope* scope) override {
    if (obs.slot == at_) throw ContractViolation("scheduler boom");
    inner_->decide_into(obs, out, scope);
  }
  std::string name() const override { return "throwing"; }

 private:
  std::shared_ptr<Scheduler> inner_;
  std::int64_t at_;
};

TEST(ServiceLoop, SolveStageThrowSurfacesAsError) {
  // Both modes: the run ends with an error naming the slot, the slots
  // before it are served and flushed, and no worker thread is left blocked.
  Fixture f;
  for (bool pipelined : {false, true}) {
    SCOPED_TRACE(pipelined ? "pipelined" : "serial");
    auto jobs = std::make_unique<StreamingJobTraceSource>(
        std::make_unique<std::istringstream>(f.jobs_csv),
        f.config->num_job_types());
    auto prices = std::make_unique<StreamingPriceTraceSource>(
        std::make_unique<std::istringstream>(f.prices_csv),
        f.config->num_data_centers());
    ServiceLoopOptions options;
    options.pipelined = pipelined;
    options.queue_depth = 2;
    ServiceLoop loop(f.config, f.scenario.availability,
                     std::make_shared<ThrowingScheduler>(f.make_scheduler(), 5),
                     std::move(jobs), std::move(prices), options);
    auto recorder = std::make_shared<RecordingInspector>();
    loop.add_flush_inspector(recorder);
    auto stats = loop.run();
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.error().message,
              "solve stage failed at slot 5: scheduler boom");
    EXPECT_EQ(loop.slots_processed(), 5);
    EXPECT_EQ(recorder->slots, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
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
  // complete without it), and separately a price gap or a NaN price at
  // slot k, all well inside the first default-size read. Serial and
  // pipelined loops serve slots 0..k-1, flush them, then fail with the
  // reader's own message — for the job row and the NaN price, the batch
  // reader's byte offset — at any read size.
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
  // A NaN price at slot k: before it was rejected, it reached the solver.
  std::string nan_prices = f.prices_csv;
  const std::size_t nan_field = nan_prices.find(gap_row) + gap_row.size();
  nan_prices.replace(nan_field, nan_prices.find('\n', nan_field) - nan_field, "nan");
  const auto nan_error = price_trace_from_csv(nan_prices, f.config->num_data_centers());
  ASSERT_FALSE(nan_error.ok());

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
      {"non-finite price", &clean_jobs, &nan_prices, nan_error.error().message},
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

TEST(ServiceLoop, RunIsSingleShot) {
  Fixture f;
  auto loop = f.make_loop({});
  ASSERT_TRUE(loop->run().ok());
  EXPECT_THROW((void)loop->run(), ContractViolation);
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

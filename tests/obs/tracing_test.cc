#include "obs/tracing_inspector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/grefar.h"
#include "obs/counters.h"
#include "obs/trace_scope.h"
#include "obs/trace_sink.h"
#include "parallel/sim_runner.h"
#include "scenario/admission_scenario.h"
#include "scenario/paper_scenario.h"
#include "util/json.h"

namespace grefar {
namespace {

// --- DOM oracle --------------------------------------------------------------
// The JsonObject tree TracingInspector used to build for every record before
// it wrote records straight into a line buffer. JsonValue::dump of this tree
// is the reference the streamed line must equal byte for byte.

JsonValue array_of(const std::vector<double>& values) {
  JsonArray out;
  out.reserve(values.size());
  for (double v : values) out.emplace_back(v);
  return out;
}

JsonValue array_of(const std::vector<std::int64_t>& values) {
  JsonArray out;
  out.reserve(values.size());
  for (std::int64_t v : values) out.emplace_back(v);
  return out;
}

template <typename T>
JsonValue sparse_or_dense(const std::vector<T>& values, std::size_t threshold) {
  if (values.size() <= threshold) return array_of(values);
  JsonArray idx;
  JsonArray val;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] != T{}) {
      idx.emplace_back(static_cast<double>(i));
      val.emplace_back(static_cast<double>(values[i]));
    }
  }
  JsonObject o;
  o.emplace("n", static_cast<double>(values.size()));
  o.emplace("idx", std::move(idx));
  o.emplace("val", std::move(val));
  return JsonValue(std::move(o));
}

JsonValue rows_of(const MatrixD& m, std::size_t threshold) {
  JsonArray rows;
  rows.reserve(m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    if (m.cols() <= threshold) {
      JsonArray row;
      row.reserve(m.cols());
      for (std::size_t j = 0; j < m.cols(); ++j) row.emplace_back(m(i, j));
      rows.emplace_back(std::move(row));
    } else {
      JsonArray idx;
      JsonArray val;
      for (std::size_t j = 0; j < m.cols(); ++j) {
        if (m(i, j) != 0.0) {
          idx.emplace_back(static_cast<double>(j));
          val.emplace_back(m(i, j));
        }
      }
      JsonObject o;
      o.emplace("n", static_cast<double>(m.cols()));
      o.emplace("idx", std::move(idx));
      o.emplace("val", std::move(val));
      rows.emplace_back(JsonValue(std::move(o)));
    }
  }
  return rows;
}

JsonValue dom_record(const SlotRecord& record,
                     const obs::TracingInspectorOptions& options) {
  JsonObject root;
  root.emplace("slot", static_cast<double>(record.slot));
  const std::size_t sparse_at = options.sparse_array_threshold;
  root.emplace("prices", array_of(record.obs->prices));
  root.emplace("central_queue", sparse_or_dense(record.obs->central_queue, sparse_at));
  if (record.dc_capacity != nullptr) {
    root.emplace("dc_capacity", array_of(*record.dc_capacity));
  }
  if (record.dc_energy_cost != nullptr) {
    root.emplace("dc_energy_cost", array_of(*record.dc_energy_cost));
  }
  if (record.dc_completions != nullptr) {
    root.emplace("dc_completions", array_of(*record.dc_completions));
  }
  if (record.dc_delay_sum != nullptr) {
    root.emplace("dc_delay_sum", array_of(*record.dc_delay_sum));
  }
  if (record.account_work != nullptr) {
    root.emplace("account_work", sparse_or_dense(*record.account_work, sparse_at));
  }
  root.emplace("fairness", record.fairness);
  if (record.arrivals != nullptr) {
    root.emplace("arrivals", sparse_or_dense(*record.arrivals, sparse_at));
  }
  if (record.central_after != nullptr) {
    root.emplace("central_after", sparse_or_dense(*record.central_after, sparse_at));
  }
  if (record.admission_active) {
    JsonObject adm;
    if (record.offered != nullptr) {
      adm.emplace("offered", sparse_or_dense(*record.offered, sparse_at));
    }
    adm.emplace("admitted_value", record.admitted_value);
    adm.emplace("rejected_value", record.rejected_value);
    adm.emplace("realized_value", record.realized_value);
    adm.emplace("decay_loss", record.decay_loss);
    adm.emplace("abandoned_jobs", record.abandoned_jobs);
    adm.emplace("abandoned_work", record.abandoned_work);
    adm.emplace("abandoned_value", record.abandoned_value);
    adm.emplace("queued_value_after", record.queued_value_after);
    adm.emplace("deadline_violations",
                static_cast<double>(record.deadline_violations));
    root.emplace("admission", JsonValue(std::move(adm)));
  }
  if (options.include_matrices) {
    root.emplace("dc_queue", rows_of(record.obs->dc_queue, sparse_at));
    root.emplace("route_ask", rows_of(record.action->route, sparse_at));
    root.emplace("process_ask", rows_of(record.action->process, sparse_at));
    root.emplace("routed", rows_of(*record.routed, sparse_at));
    root.emplace("served_work", rows_of(*record.served_work, sparse_at));
    if (record.dc_after != nullptr) {
      root.emplace("dc_after", rows_of(*record.dc_after, sparse_at));
    }
  }
  if (record.scope != nullptr) {
    const TraceScope& scope = *record.scope;
    JsonObject annotations;
    annotations.emplace("drift_weights_negative",
                        static_cast<double>(scope.drift_weights_negative));
    annotations.emplace("drift_weights_nonnegative",
                        static_cast<double>(scope.drift_weights_nonnegative));
    JsonArray splits;
    splits.reserve(scope.tie_splits.size());
    for (const auto& split : scope.tie_splits) {
      JsonObject s;
      s.emplace("job_type", static_cast<double>(split.job_type));
      s.emplace("group_size", static_cast<double>(split.group_size));
      s.emplace("jobs", split.jobs);
      s.emplace("zero_capacity_skipped",
                static_cast<double>(split.zero_capacity_skipped));
      splits.emplace_back(std::move(s));
    }
    annotations.emplace("tie_splits", std::move(splits));
    if (scope.admission.active) {
      JsonObject a;
      a.emplace("offered_jobs", static_cast<double>(scope.admission.offered_jobs));
      a.emplace("admitted_jobs",
                static_cast<double>(scope.admission.admitted_jobs));
      a.emplace("rejected_jobs",
                static_cast<double>(scope.admission.rejected_jobs));
      a.emplace("admitted_value", scope.admission.admitted_value);
      a.emplace("rejected_value", scope.admission.rejected_value);
      if (std::isnan(scope.admission.threshold)) {
        a.emplace("threshold", JsonValue(nullptr));
      } else {
        a.emplace("threshold", scope.admission.threshold);
      }
      annotations.emplace("admission", std::move(a));
    }
    root.emplace("annotations", std::move(annotations));
  }
  return JsonValue(std::move(root));
}

/// The streamed line TracingInspector writes for `record`.
std::string streamed_line(const SlotRecord& record,
                          const obs::TracingInspectorOptions& options) {
  obs::TraceSink::Options sink_options;
  sink_options.ring_capacity = 1;
  auto sink = std::make_shared<obs::TraceSink>(sink_options);
  obs::TracingInspector(sink, options).inspect(record);
  return sink->ring().back();
}

/// Checks every record an engine produces against the oracle.
class OracleCheckInspector final : public SlotInspector {
 public:
  explicit OracleCheckInspector(obs::TracingInspectorOptions options)
      : options_(options) {}

  void inspect(const SlotRecord& record) override {
    ASSERT_EQ(streamed_line(record, options_), dom_record(record, options_).dump())
        << "slot " << record.slot;
    ++checked;
    if (record.admission_active) ++admission_records;
    if (record.scope != nullptr && !record.scope->tie_splits.empty()) ++tie_records;
  }

  int checked = 0;
  int admission_records = 0;
  int tie_records = 0;

 private:
  obs::TracingInspectorOptions options_;
};

/// A hand-built record exercising every field, with -0.0, fractional,
/// 17-digit and large-integer entries. N = 2 DCs, J = 5 job types.
struct RecordParts {
  SlotObservation obs;
  SlotAction action;
  MatrixD routed{2, 5};
  MatrixD served{2, 5};
  MatrixD dc_after{2, 5};
  std::vector<double> dc_capacity{120.0, 0.5};
  std::vector<double> dc_energy_cost{3.25, -0.0};
  std::vector<double> dc_completions{4.0, 0.0};
  std::vector<double> dc_delay_sum{17.0, 1e-05};
  std::vector<double> account_work{0.0, 2.5, -0.0, 0.1 + 0.2, 0.0};
  std::vector<std::int64_t> arrivals{0, 3, 0, 0, 1234567890123};
  std::vector<std::int64_t> offered{1, 3, 0, 0, 1234567890123};
  std::vector<double> central_after{0.0, 3.0, -0.0, 0.0, 1.0 / 3.0};
  TraceScope scope;

  RecordParts() {
    obs.slot = 41;
    obs.prices = {0.0375, 2.0 / 3.0};
    obs.central_queue = {0.0, 1.0, -0.0, 1e15, 0.0};
    obs.dc_queue = MatrixD(2, 5);
    obs.dc_queue(0, 1) = 2.0;
    obs.dc_queue(1, 4) = 0.12345678901234568;
    action.route = MatrixD(2, 5);
    action.route(1, 0) = 1.0;
    action.process = MatrixD(2, 5);
    action.process(0, 2) = -0.0;
    action.process(1, 3) = 0.7;
    routed(1, 0) = 1.0;
    served(1, 3) = 0.7;
    dc_after(0, 0) = 999999999999999.0;
    dc_after(1, 1) = 1e16;
    scope.drift_weights_negative = 3;
    scope.drift_weights_nonnegative = 7;
    scope.tie_splits = {{.job_type = 2, .group_size = 2, .jobs = 3.0,
                         .zero_capacity_skipped = 0},
                        {.job_type = 4, .group_size = 3, .jobs = 0.5,
                         .zero_capacity_skipped = 1}};
    scope.admission.active = true;
    scope.admission.offered_jobs = 10;
    scope.admission.admitted_jobs = 7;
    scope.admission.rejected_jobs = 3;
    scope.admission.admitted_value = 12.75;
    scope.admission.rejected_value = 0.1;
    scope.admission.threshold = std::numeric_limits<double>::quiet_NaN();
  }

  SlotRecord record() const {
    SlotRecord r;
    r.slot = obs.slot;
    r.obs = &obs;
    r.action = &action;
    r.routed = &routed;
    r.served_work = &served;
    r.dc_capacity = &dc_capacity;
    r.dc_energy_cost = &dc_energy_cost;
    r.dc_completions = &dc_completions;
    r.dc_delay_sum = &dc_delay_sum;
    r.account_work = &account_work;
    r.fairness = -0.0;
    r.arrivals = &arrivals;
    r.central_after = &central_after;
    r.dc_after = &dc_after;
    r.scope = &scope;
    r.offered = &offered;
    r.admission_active = true;
    r.admitted_value = 12.75;
    r.rejected_value = 0.1;
    r.realized_value = 1.0 / 7.0;
    r.decay_loss = 0.0;
    r.abandoned_jobs = 2.0;
    r.abandoned_work = 5.5;
    r.abandoned_value = -0.0;
    r.queued_value_after = 1e21;
    r.deadline_violations = 0;
    return r;
  }
};

/// Option sets covering dense, sparse (vectors and rows trip at J = 5 > 3)
/// and matrix-free records.
std::vector<obs::TracingInspectorOptions> option_sets() {
  std::vector<obs::TracingInspectorOptions> out;
  for (bool matrices : {true, false}) {
    for (std::size_t threshold : {std::size_t{4096}, std::size_t{3}, std::size_t{0}}) {
      out.push_back({.include_matrices = matrices, .sparse_array_threshold = threshold});
    }
  }
  return out;
}

void expect_matches_oracle(const SlotRecord& record, const std::string& what) {
  for (const auto& options : option_sets()) {
    EXPECT_EQ(streamed_line(record, options), dom_record(record, options).dump())
        << what << " (matrices " << options.include_matrices << ", sparse above "
        << options.sparse_array_threshold << ")";
  }
}

// Runs the small 2-DC scenario under GreFar for `slots` with a tracer
// attached and returns the serialized records (ring snapshot).
std::vector<std::string> run_traced(std::uint64_t seed, std::int64_t slots,
                                    std::shared_ptr<obs::TraceSink> sink = nullptr) {
  if (sink == nullptr) {
    sink = std::make_shared<obs::TraceSink>(obs::TraceSink::Options{});
  }
  PaperScenario scenario = make_small_scenario(seed);
  auto engine = make_scenario_engine(
      scenario,
      std::make_shared<GreFarScheduler>(scenario.config,
                                        paper_grefar_params(7.5, 10.0)),
      {}, AuditMode::kOff);
  engine->set_inspector(std::make_shared<obs::TracingInspector>(sink));
  engine->run(slots);
  return sink->ring();
}

TEST(TraceSink, RingKeepsMostRecentRecords) {
  obs::TraceSink::Options options;
  options.ring_capacity = 2;
  obs::TraceSink sink(options);
  JsonObject o;
  for (int i = 0; i < 5; ++i) {
    o["i"] = JsonValue(i);
    sink.write(JsonValue(o));
  }
  EXPECT_EQ(sink.records_written(), 5u);
  const auto ring = sink.ring();
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[0], "{\"i\":3}");
  EXPECT_EQ(ring[1], "{\"i\":4}");
}

TEST(TraceSink, WritesJsonlFile) {
  const std::string path = testing::TempDir() + "trace_sink_test.jsonl";
  std::remove(path.c_str());
  {
    obs::TraceSink::Options options;
    options.path = path;
    obs::TraceSink sink(options);
    JsonObject o;
    o["slot"] = JsonValue(0);
    sink.write(JsonValue(o));
    o["slot"] = JsonValue(1);
    sink.write(JsonValue(o));
  }  // destructor flushes
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"slot\":0}");
  EXPECT_EQ(lines[1], "{\"slot\":1}");
  std::remove(path.c_str());
}

// The golden structural contract of one slot record: every documented field
// is present with the right shape, so downstream tools (trace_inspect) can
// rely on the schema.
TEST(TracingInspector, RecordSchemaIsComplete) {
  const auto ring = run_traced(/*seed=*/7, /*slots=*/20);
  ASSERT_EQ(ring.size(), 20u);
  auto parsed = parse_json(ring.front());
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const JsonValue& rec = parsed.value();
  ASSERT_TRUE(rec.is_object());
  EXPECT_DOUBLE_EQ(rec.find("slot")->as_number(), 0.0);
  for (const char* key :
       {"prices", "central_queue", "dc_capacity", "dc_energy_cost",
        "dc_completions", "dc_delay_sum", "account_work", "arrivals",
        "central_after"}) {
    const JsonValue* field = rec.find(key);
    ASSERT_NE(field, nullptr) << key;
    EXPECT_TRUE(field->is_array()) << key;
  }
  EXPECT_TRUE(rec.find("fairness")->is_number());
  for (const char* key :
       {"dc_queue", "route_ask", "process_ask", "routed", "served_work",
        "dc_after"}) {
    const JsonValue* field = rec.find(key);
    ASSERT_NE(field, nullptr) << key;
    ASSERT_TRUE(field->is_array()) << key;
    // 2 DCs x 2 job types in the small scenario.
    ASSERT_EQ(field->as_array().size(), 2u) << key;
    EXPECT_EQ(field->as_array()[0].as_array().size(), 2u) << key;
  }
  // GreFar passes a TraceScope, so scheduler annotations must be present.
  const JsonValue* annotations = rec.find("annotations");
  ASSERT_NE(annotations, nullptr);
  EXPECT_NE(annotations->find("drift_weights_negative"), nullptr);
  EXPECT_NE(annotations->find("drift_weights_nonnegative"), nullptr);
  EXPECT_TRUE(annotations->find("tie_splits")->is_array());
}

TEST(TracingInspector, TraceIsByteIdenticalAcrossRuns) {
  const auto first = run_traced(/*seed=*/11, /*slots=*/30);
  const auto second = run_traced(/*seed=*/11, /*slots=*/30);
  EXPECT_EQ(first, second);
  const auto other_seed = run_traced(/*seed=*/12, /*slots=*/30);
  EXPECT_NE(first, other_seed);
}

TEST(TracingInspector, MatrixFreeModeOmitsMatrices) {
  auto sink = std::make_shared<obs::TraceSink>(obs::TraceSink::Options{});
  PaperScenario scenario = make_small_scenario(3);
  auto engine = make_scenario_engine(
      scenario,
      std::make_shared<GreFarScheduler>(scenario.config,
                                        paper_grefar_params(7.5, 0.0)),
      {}, AuditMode::kOff);
  obs::TracingInspectorOptions options;
  options.include_matrices = false;
  engine->set_inspector(std::make_shared<obs::TracingInspector>(sink, options));
  engine->run(3);
  auto parsed = parse_json(sink->ring().front());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().find("routed"), nullptr);
  EXPECT_NE(parsed.value().find("central_queue"), nullptr);
}

TEST(TracingInspector, StreamedRecordMatchesDomOracle) {
  const RecordParts parts;
  expect_matches_oracle(parts.record(), "full record");
}

TEST(TracingInspector, StreamedRecordMatchesDomOracleWithEachOptionalFieldNull) {
  const RecordParts parts;
  const std::vector<std::pair<const char*, std::function<void(SlotRecord&)>>> drops = {
      {"dc_capacity", [](SlotRecord& r) { r.dc_capacity = nullptr; }},
      {"dc_energy_cost", [](SlotRecord& r) { r.dc_energy_cost = nullptr; }},
      {"dc_completions", [](SlotRecord& r) { r.dc_completions = nullptr; }},
      {"dc_delay_sum", [](SlotRecord& r) { r.dc_delay_sum = nullptr; }},
      {"account_work", [](SlotRecord& r) { r.account_work = nullptr; }},
      {"arrivals", [](SlotRecord& r) { r.arrivals = nullptr; }},
      {"central_after", [](SlotRecord& r) { r.central_after = nullptr; }},
      {"dc_after", [](SlotRecord& r) { r.dc_after = nullptr; }},
      {"scope", [](SlotRecord& r) { r.scope = nullptr; }},
      {"offered", [](SlotRecord& r) { r.offered = nullptr; }},
      {"admission_active", [](SlotRecord& r) { r.admission_active = false; }},
  };
  SlotRecord all_dropped = parts.record();
  for (const auto& [name, drop] : drops) {
    SlotRecord r = parts.record();
    drop(r);
    expect_matches_oracle(r, name);
    drop(all_dropped);
  }
  expect_matches_oracle(all_dropped, "every optional field dropped");
}

TEST(TracingInspector, StreamedRecordMatchesDomOracleOnScopeShapes) {
  RecordParts parts;
  expect_matches_oracle(parts.record(), "NaN threshold, two tie splits");
  parts.scope.admission.threshold = 0.8125;
  expect_matches_oracle(parts.record(), "finite threshold");
  parts.scope.admission.active = false;
  expect_matches_oracle(parts.record(), "admission stage inactive");
  parts.scope.tie_splits.clear();
  expect_matches_oracle(parts.record(), "no tie splits");
  parts.scope.tie_splits.resize(5);
  parts.scope.tie_splits[4].jobs = -0.0;
  expect_matches_oracle(parts.record(), "five tie splits");
}

TEST(TracingInspector, StreamedRecordMatchesDomOracleOnEmptyShapes) {
  RecordParts parts;
  parts.obs.prices.clear();
  parts.obs.central_queue.clear();
  parts.obs.dc_queue = MatrixD();
  parts.action.route = MatrixD(2, 0);
  parts.action.process = MatrixD(2, 0);
  parts.routed = MatrixD();
  parts.served = MatrixD(0, 5);
  parts.dc_after = MatrixD();
  parts.dc_capacity.clear();
  parts.account_work.clear();
  parts.arrivals.clear();
  parts.offered.clear();
  parts.central_after.clear();
  expect_matches_oracle(parts.record(), "empty vectors and matrices");
}

TEST(TracingInspector, StreamedRecordMatchesDomOracleOnEngineRuns) {
  // Plain GreFar on the small scenario, dense and with every vector and
  // row past the sparse threshold, with and without matrices.
  for (const auto& options : option_sets()) {
    PaperScenario scenario = make_small_scenario(19);
    auto engine = make_scenario_engine(
        scenario,
        std::make_shared<GreFarScheduler>(scenario.config,
                                          paper_grefar_params(7.5, 10.0)),
        {}, AuditMode::kOff);
    auto check = std::make_shared<OracleCheckInspector>(options);
    engine->set_inspector(check);
    engine->run(40);
    EXPECT_EQ(check->checked, 40);
  }
  // The valued admission scenario: admission blocks, with the threshold
  // policy's finite threshold and admit-all's NaN one.
  for (auto kind : {AdmissionPolicyKind::kThreshold, AdmissionPolicyKind::kAdmitAll}) {
    PaperScenario scenario = make_admission_scenario(5, kind);
    auto engine = make_scenario_engine(
        scenario,
        std::make_shared<GreFarScheduler>(scenario.config,
                                          paper_grefar_params(7.5, 0.0)),
        {}, AuditMode::kOff);
    auto check = std::make_shared<OracleCheckInspector>(
        obs::TracingInspectorOptions{.sparse_array_threshold = 3});
    engine->set_inspector(check);
    engine->run(60);
    EXPECT_EQ(check->checked, 60);
    EXPECT_EQ(check->admission_records, 60);
  }
}

TEST(TraceSink, WriteLineWithoutRingStillWritesFile) {
  const std::string path = testing::TempDir() + "trace_sink_no_ring.jsonl";
  std::remove(path.c_str());
  {
    obs::TraceSink::Options options;
    options.path = path;
    options.ring_capacity = 0;
    obs::TraceSink sink(options);
    sink.write_line("{\"a\":1}");
    sink.write_line("[]");
    EXPECT_TRUE(sink.ring().empty());
    EXPECT_EQ(sink.records_written(), 2u);
  }
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text, "{\"a\":1}\n[]\n");
  std::remove(path.c_str());
}

// A counting inspector for the tee test.
class CountingInspector final : public SlotInspector {
 public:
  void inspect(const SlotRecord& record) override {
    ++calls;
    last_slot = record.slot;
  }
  int calls = 0;
  std::int64_t last_slot = -1;
};

// End-to-end determinism: full engines fanned over a SimRunner produce
// bit-identical counter totals at any worker count.
TEST(Counters, EngineCounterTotalsAreJobCountInvariant) {
  auto run_with = [](std::size_t jobs) {
    obs::CounterRegistry reg;
    obs::CountersScope scope(&reg);
    std::vector<std::function<void()>> tasks;
    for (std::uint64_t leg = 0; leg < 4; ++leg) {
      tasks.push_back([leg] {
        PaperScenario scenario = make_small_scenario(100 + leg);
        auto engine = make_scenario_engine(
            scenario,
            std::make_shared<GreFarScheduler>(scenario.config,
                                              paper_grefar_params(7.5, 0.0)),
            {}, AuditMode::kOff);
        engine->run(40);
      });
    }
    SimRunner(jobs).run(tasks);
    return reg;
  };
  const obs::CounterRegistry serial = run_with(1);
  const obs::CounterRegistry pooled = run_with(8);
  EXPECT_EQ(serial.counters(), pooled.counters());
  EXPECT_EQ(serial.gauges(), pooled.gauges());
  EXPECT_EQ(serial.counter("engine.slots"), 160u);
}

TEST(TeeInspector, FansOutToAllInspectors) {
  auto a = std::make_shared<CountingInspector>();
  auto b = std::make_shared<CountingInspector>();
  PaperScenario scenario = make_small_scenario(5);
  auto engine = make_scenario_engine(
      scenario,
      std::make_shared<GreFarScheduler>(scenario.config,
                                        paper_grefar_params(7.5, 0.0)),
      {}, AuditMode::kOff);
  engine->set_inspector(std::make_shared<obs::TeeInspector>(
      std::vector<std::shared_ptr<SlotInspector>>{a, b}));
  engine->run(4);
  EXPECT_EQ(a->calls, 4);
  EXPECT_EQ(b->calls, 4);
  EXPECT_EQ(a->last_slot, 3);
  EXPECT_EQ(b->last_slot, 3);
}

}  // namespace
}  // namespace grefar

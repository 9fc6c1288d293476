// Allocation-regression guard for the simulation hot path.
//
// PR "per-slot hot-path allocation elimination" brought the steady-state
// cost of one engine step down to a handful of allocations (amortized
// vector growth in the lazily extended price/arrival caches); this test
// locks those numbers in. It links the counting global operator new
// (bench/common/counting_new.h), runs the paper scenario past its warm-up
// transient, measures allocations per slot over a long window, and fails
// if the measurement exceeds the checked-in baseline (BENCH_baseline.json,
// "allocs_per_slot") by more than 10%. The run is deterministic per seed,
// so the measured value is bit-stable — a failure means a real hot-path
// regression.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "common/counting_new.h"
#include "core/grefar.h"
#include "obs/trace_sink.h"
#include "obs/tracing_inspector.h"
#include "scenario/paper_scenario.h"
#include "scenario/serve_scenario.h"
#include "sweep/artifact_cache.h"
#include "sweep/sweep_engine.h"
#include "trace/stream_source.h"
#include "util/json.h"
#include "util/strings.h"

namespace grefar {
namespace {

constexpr std::int64_t kWarmupSlots = 300;
constexpr std::int64_t kMeasuredSlots = 500;

/// Steady-state allocations per engine slot for a GreFar run on the paper
/// scenario (the greedy at beta = 0, SPG above). The auditor is explicitly off: it exists for Debug/CI
/// correctness runs and pays for its bookkeeping; this test guards the
/// bare Release hot path.
double measure_allocs_per_slot(double beta) {
  PaperScenario scenario = make_paper_scenario(/*seed=*/42);
  auto scheduler = std::make_shared<GreFarScheduler>(
      scenario.config, paper_grefar_params(/*V=*/7.5, beta));
  auto engine =
      make_scenario_engine(scenario, std::move(scheduler), AuditMode::kOff);
  engine->run(kWarmupSlots);
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  engine->run(kMeasuredSlots);
  g_counting.store(false, std::memory_order_relaxed);
  return static_cast<double>(g_allocations.load(std::memory_order_relaxed)) /
         static_cast<double>(kMeasuredSlots);
}

double baseline(const char* key) {
  auto doc = parse_json_file(GREFAR_BENCH_BASELINE);
  if (!doc.ok()) {
    ADD_FAILURE() << "cannot read " << GREFAR_BENCH_BASELINE << ": "
                  << doc.error().message;
    return 0.0;
  }
  const JsonValue* section = doc.value().find("allocs_per_slot");
  if (section == nullptr) {
    ADD_FAILURE() << "BENCH_baseline.json has no allocs_per_slot section";
    return 0.0;
  }
  const JsonValue* entry = section->find(key);
  if (entry == nullptr || !entry->is_number()) {
    ADD_FAILURE() << "allocs_per_slot has no numeric entry '" << key << "'";
    return 0.0;
  }
  return entry->as_number();
}

TEST(AllocRegression, GreedySteadyStateStaysWithinBaseline) {
  const double limit = baseline("grefar_greedy") * 1.1;
  ASSERT_GT(limit, 0.0);
  const double measured = measure_allocs_per_slot(0.0);
  EXPECT_LE(measured, limit)
      << "greedy hot path now allocates " << measured
      << " times per slot (baseline allows " << limit
      << "); find the new allocation or re-baseline BENCH_baseline.json";
}

TEST(AllocRegression, PgdSteadyStateStaysWithinBaseline) {
  const double limit = baseline("grefar_pgd") * 1.1;
  ASSERT_GT(limit, 0.0);
  const double measured = measure_allocs_per_slot(100.0);
  EXPECT_LE(measured, limit)
      << "PGD hot path now allocates " << measured
      << " times per slot (baseline allows " << limit
      << "); find the new allocation or re-baseline BENCH_baseline.json";
}

TEST(AllocRegression, PgdAllocatesNoMoreThanGreedy) {
  // Both solvers measured in this process, so the engine's own per-slot
  // allocations cancel: PGD at beta = 100 keeps its iterate, gradients and
  // line-search buffers in the scheduler's scratch and must add nothing
  // per slot on top of the greedy path.
  const double greedy = measure_allocs_per_slot(0.0);
  const double pgd = measure_allocs_per_slot(100.0);
  EXPECT_LE(pgd, greedy) << "PGD makes " << pgd << " allocations per slot, greedy "
                         << greedy;
}

/// Counts allocations only *between* decides: counting switches off when a
/// decide starts and back on (while armed) when it returns. With table-backed
/// models, whose lookups never allocate, that window is the engine's own
/// per-job work — routing, service and completions, admission — plus the
/// next slot's observe.
class BetweenDecidesCounter final : public Scheduler {
 public:
  explicit BetweenDecidesCounter(std::shared_ptr<Scheduler> inner)
      : inner_(std::move(inner)) {}

  SlotAction decide(const SlotObservation& obs) override { return inner_->decide(obs); }
  void decide_into(const SlotObservation& obs, SlotAction& out) override {
    decide_into(obs, out, nullptr);
  }
  void decide_into(const SlotObservation& obs, SlotAction& out,
                   TraceScope* scope) override {
    g_counting.store(false, std::memory_order_relaxed);
    inner_->decide_into(obs, out, scope);
    g_counting.store(armed, std::memory_order_relaxed);
  }
  std::string name() const override { return inner_->name(); }

  bool armed = false;

 private:
  std::shared_ptr<Scheduler> inner_;
};

// Completions, admission and routing move jobs through reused queue storage
// and count delays in a histogram. Storage grows only at a new high-water
// mark, so the warm-up is one full run: the engine and scheduler are then
// reset in place (the sweep-arena path, capacities kept) and the same
// trajectory replays bitwise, and past that warm-up the engine's per-job
// work on the paper scenario allocates nothing at all.
TEST(AllocRegression, PerJobEngineWorkAllocatesNothingInSteadyState) {
  constexpr std::int64_t kHorizon = kWarmupSlots + kMeasuredSlots;
  const sweep::ScenarioArtifacts artifacts =
      sweep::materialize_scenario(make_paper_scenario(/*seed=*/42), kHorizon);
  const GreFarParams params = paper_grefar_params(/*V=*/7.5, 0.0);
  auto grefar = std::make_shared<GreFarScheduler>(artifacts.config, params);
  auto counter = std::make_shared<BetweenDecidesCounter>(grefar);
  SimulationEngine engine(artifacts.config, artifacts.prices, artifacts.availability,
                          artifacts.arrivals, counter);
  engine.run(kHorizon);
  const SimMetrics warmup = engine.metrics();

  engine.reset(artifacts.config, artifacts.prices, artifacts.availability,
               artifacts.arrivals, counter);
  grefar->begin_run(params);
  g_allocations.store(0, std::memory_order_relaxed);
  counter->armed = true;
  engine.run(kHorizon);
  counter->armed = false;
  g_counting.store(false, std::memory_order_relaxed);
  const auto allocations = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(allocations, 0u) << "the engine's per-job work allocated " << allocations
                             << " times over a replayed " << kHorizon << "-slot run";
  // The replay is the warm-up's trajectory, and it moved real jobs.
  const SimMetrics& m = engine.metrics();
  EXPECT_EQ(m.total_queue_jobs.values(), warmup.total_queue_jobs.values());
  EXPECT_EQ(m.delay_stats.count(), warmup.delay_stats.count());
  EXPECT_GT(m.delay_stats.count(), 0);
  EXPECT_GT(m.arrived_jobs.sum(), 0.0);
  double routed = 0.0;
  for (const TimeSeries& dc : m.dc_routed_jobs) routed += dc.sum();
  EXPECT_GT(routed, 0.0);
}

/// Counts the allocations made inside the wrapped tracer's inspect() while
/// `counting` is set, so the engine's own per-slot allocations stay out of
/// the measurement.
class CountingTracer final : public SlotInspector {
 public:
  explicit CountingTracer(std::shared_ptr<obs::TracingInspector> tracer)
      : tracer_(std::move(tracer)) {}

  void inspect(const SlotRecord& record) override {
    g_counting.store(counting, std::memory_order_relaxed);
    tracer_->inspect(record);
    g_counting.store(false, std::memory_order_relaxed);
  }

  bool counting = false;

 private:
  std::shared_ptr<obs::TracingInspector> tracer_;
};

// The traced slot writes its JSONL record into reused buffers: once the
// line buffer has grown, the slot log allocates nothing.
TEST(AllocRegression, TracedSlotLogAllocatesNothingInSteadyState) {
  const std::string path = testing::TempDir() + "alloc_regression_trace.jsonl";
  obs::TraceSink::Options sink_options;
  sink_options.path = path;
  auto sink = std::make_shared<obs::TraceSink>(sink_options);
  auto tracer = std::make_shared<CountingTracer>(
      std::make_shared<obs::TracingInspector>(sink));

  PaperScenario scenario = make_paper_scenario(/*seed=*/42);
  auto engine = make_scenario_engine(
      scenario,
      std::make_shared<GreFarScheduler>(scenario.config,
                                        paper_grefar_params(/*V=*/7.5, 0.0)),
      AuditMode::kOff);
  engine->set_inspector(tracer);
  engine->run(kWarmupSlots);
  g_allocations.store(0, std::memory_order_relaxed);
  tracer->counting = true;
  engine->run(kMeasuredSlots);
  tracer->counting = false;
  const auto allocations = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(allocations, 0u) << "the traced slot log allocated " << allocations
                             << " times over " << kMeasuredSlots << " slots";
  sink->flush();
  EXPECT_EQ(sink->records_written(),
            static_cast<std::uint64_t>(kWarmupSlots + kMeasuredSlots));
  std::remove(path.c_str());
}

/// Slot shapes of the served-shape traces below: slot t repeats the
/// arrivals and prices of slot t % kTracePatterns, so by the end of the
/// warm-up every recycled slot buffer has met the largest slot it will
/// hold, and every read boundary has been crossed by a row.
constexpr std::int64_t kTracePatterns = 24;
constexpr std::int64_t kTraceWarmupSlots = 8 * kTracePatterns;
constexpr std::int64_t kTraceMeasuredSlots = 8 * kTracePatterns;

struct ServedTraceText {
  std::string v1;
  std::string v2;
  std::string prices;
};

/// The serve scenario's traces (8 DCs x 96 types, as perfbench serves), in
/// both job schemas, as text.
ServedTraceText served_trace_text() {
  const PaperScenario s = make_serve_scenario(8, 96, /*seed=*/1);
  std::ostringstream v1, v2, prices;
  v1 << "slot,type,count\n";
  v2 << "slot,type,count,value,decay,deadline\n";
  prices << "slot,dc,price\n";
  std::vector<std::int64_t> counts;
  for (std::int64_t t = 0; t <= kTraceWarmupSlots + kTraceMeasuredSlots; ++t) {
    const std::int64_t shape = t % kTracePatterns;
    s.arrivals->arrivals_into(shape, counts);
    for (std::size_t j = 0; j < counts.size(); ++j) {
      if (counts[j] == 0) continue;
      v1 << t << ',' << j << ',' << counts[j] << '\n';
      v2 << t << ',' << j << ',' << counts[j] << ','
         << format_fixed(0.5 + 0.03125 * static_cast<double>(j), 6) << ','
         << format_fixed(0.015625 * static_cast<double>(j % 7), 6) << ','
         << (j % 3 == 0 ? -1 : 2 + static_cast<int>(j % 9)) << '\n';
    }
    for (std::size_t dc = 0; dc < s.config.num_data_centers(); ++dc) {
      prices << t << ',' << dc << ',' << format_fixed(s.prices->price(dc, shape), 6)
             << '\n';
    }
  }
  return {v1.str(), v2.str(), prices.str()};
}

/// Allocations made by kTraceMeasuredSlots calls of `pull` (true = a slot
/// was emitted) after kTraceWarmupSlots warm-up calls.
template <typename Pull>
std::uint64_t steady_state_allocations(Pull pull) {
  for (std::int64_t t = 0; t < kTraceWarmupSlots; ++t) {
    if (!pull()) {
      ADD_FAILURE() << "warm-up pull " << t << " emitted no slot";
      return 0;
    }
  }
  bool emitted = true;
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (std::int64_t t = 0; t < kTraceMeasuredSlots; ++t) emitted = pull() && emitted;
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_TRUE(emitted) << "a measured pull emitted no slot";
  return g_allocations.load(std::memory_order_relaxed);
}

// Served ingest reuses its slot buffers: once they are warm, pulling a
// slot from either job schema or from the price trace allocates nothing.
TEST(AllocRegression, StreamingTraceSourcesAllocateNothingPerSlot) {
  const ServedTraceText text = served_trace_text();

  StreamingJobTraceSource v1(std::make_unique<std::istringstream>(text.v1), 96);
  std::vector<std::int64_t> counts;
  EXPECT_EQ(steady_state_allocations([&] {
              auto more = v1.next_slot_into(counts);
              return more.ok() && more.value();
            }),
            0u)
      << "next_slot_into on a v1 trace";

  StreamingJobTraceSource v2(std::make_unique<std::istringstream>(text.v2), 96);
  ASSERT_TRUE(v2.valued());
  std::vector<ArrivalBatch> batches;
  EXPECT_EQ(steady_state_allocations([&] {
              auto more = v2.next_slot_batches_into(batches);
              return more.ok() && more.value();
            }),
            0u)
      << "next_slot_batches_into on a v2 trace";

  StreamingPriceTraceSource prices(std::make_unique<std::istringstream>(text.prices), 8);
  std::vector<double> price_row;
  EXPECT_EQ(steady_state_allocations([&] {
              auto more = prices.next_slot_into(price_row);
              return more.ok() && more.value();
            }),
            0u)
      << "the price source's next_slot_into";
}

/// Steady-state allocations per sweep leg on a reused SweepEngine: run the
/// spec once to grow every arena and materialize the scenario, then measure
/// a second identical run. What remains per leg is plan resolution (a few
/// strings/closures) plus whatever the engine-reuse path still allocates —
/// the quantity DESIGN.md §16's allocation-free-steady-state claim is about.
double measure_allocs_per_leg() {
  constexpr std::int64_t kHorizon = 32;
  constexpr std::size_t kLegs = 32;
  sweep::SweepSpec spec;
  spec.axes = {{.name = "V", .values = std::vector<double>(kLegs, 0.0)}};
  for (std::size_t i = 0; i < kLegs; ++i) {
    spec.axes[0].values[i] = 0.5 + static_cast<double>(i);
  }
  spec.horizon = kHorizon;
  spec.scenario = [](const sweep::SweepPoint&) { return make_paper_scenario(42); };
  spec.plan = [](const sweep::SweepPoint& p) {
    sweep::LegPlan plan;
    plan.scenario_key = "paper/seed=42";
    plan.grefar = paper_grefar_params(p.value(0), 0.0);
    return plan;
  };
  sweep::SweepOptions options;
  options.jobs = 1;
  options.audit = AuditMode::kOff;
  sweep::SweepEngine engine(options);
  auto noop = [](std::size_t, SimulationEngine&) {};
  engine.run(spec, noop);  // warm-up: grows arenas, fills the artifact cache
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  engine.run(spec, noop);
  g_counting.store(false, std::memory_order_relaxed);
  return static_cast<double>(g_allocations.load(std::memory_order_relaxed)) /
         static_cast<double>(kLegs);
}

TEST(AllocRegression, SweepSteadyStateAllocsPerLegStaysWithinBaseline) {
  auto doc = parse_json_file(GREFAR_BENCH_BASELINE);
  ASSERT_TRUE(doc.ok());
  const JsonValue* section = doc.value().find("allocs_per_leg");
  ASSERT_NE(section, nullptr)
      << "BENCH_baseline.json has no allocs_per_leg section";
  const JsonValue* entry = section->find("sweep_grefar_greedy");
  ASSERT_TRUE(entry != nullptr && entry->is_number());
  const double limit = entry->as_number() * 1.1;
  ASSERT_GT(limit, 0.0);
  const double measured = measure_allocs_per_leg();
  EXPECT_LE(measured, limit)
      << "sweep steady state now allocates " << measured
      << " times per leg (baseline allows " << limit
      << "); find the new allocation or re-baseline BENCH_baseline.json";
}

}  // namespace
}  // namespace grefar

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
#include <string>

#include "common/counting_new.h"
#include "core/grefar.h"
#include "obs/trace_sink.h"
#include "obs/tracing_inspector.h"
#include "scenario/paper_scenario.h"
#include "sweep/artifact_cache.h"
#include "sweep/sweep_engine.h"
#include "util/json.h"

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

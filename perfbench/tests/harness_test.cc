// Tests of the benchmark's own logic: the tail-percentile rule, span
// self-time subtraction, failure counting, draw cycling and fastest-
// repetition timing, and that the forwarding wrappers leave decisions
// bitwise unchanged.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/grefar.h"
#include "harness/probes.h"
#include "harness/spans.h"
#include "harness/stats.h"
#include "harness/workloads.h"
#include "scenario/serve_scenario.h"
#include "serve/service_loop.h"
#include "trace/job_trace.h"
#include "trace/price_trace.h"

namespace perfbench {
namespace {

using namespace grefar;

TEST(TailChoice, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(choose_tail(10000).per_mille, 999);
  EXPECT_EQ(choose_tail(10000).beyond, 10u);
  EXPECT_EQ(choose_tail(9999).per_mille, 990);  // p99.9 would leave 9
  EXPECT_EQ(choose_tail(5000).per_mille, 990);
  EXPECT_EQ(choose_tail(5000).beyond, 50u);
  EXPECT_EQ(choose_tail(1000).per_mille, 990);
  EXPECT_EQ(choose_tail(999).per_mille, 950);
  EXPECT_EQ(choose_tail(120).per_mille, 900);
  EXPECT_EQ(choose_tail(120).beyond, 12u);
  EXPECT_EQ(choose_tail(60).per_mille, 750);
  EXPECT_EQ(choose_tail(20).per_mille, 500);
  EXPECT_EQ(choose_tail(5).per_mille, 500);  // too few: the median, flagged
  EXPECT_LT(choose_tail(5).beyond, 10u);
  for (std::size_t n = 20; n < 3000; ++n) EXPECT_GE(choose_tail(n).beyond, 10u) << n;
  EXPECT_EQ(choose_tail(1000).label(), "p99");
  EXPECT_EQ(choose_tail(10000).label(), "p99.9");
}

TEST(TailChoice, SummaryUsesNearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const LatencySummary s = summarize_latency(v);
  EXPECT_EQ(s.samples, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.tail_value, 990.0);  // exactly 10 samples lie beyond
  EXPECT_EQ(s.tail.beyond, 10u);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfNestedChildren) {
  std::vector<Span> spans = {
      {SpanKind::kRun, -1, -1, 0, 100},    // 0: root
      {SpanKind::kStep, 0, 0, 10, 40},     // 1: child of root
      {SpanKind::kFlush, 0, 0, 30, 60},    // 2: overlaps 1 (another thread)
      {SpanKind::kDecide, 0, 1, 15, 20},   // 3: grandchild under 1
      {SpanKind::kFlush, 1, 0, 90, 120},   // 4: runs past the root's end
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);  // union [10,60] plus the clipped [90,100]
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 5);
  EXPECT_EQ(self[4], 30);
  const auto kinds = totals_by_kind(spans);
  EXPECT_EQ(kinds.at(SpanKind::kFlush).count, 2u);
  EXPECT_EQ(kinds.at(SpanKind::kFlush).self_ns, 60.0);
}

TEST(Spans, NestedChildInsideEarlierChildIsNotCountedTwice) {
  std::vector<Span> spans = {
      {SpanKind::kRun, -1, -1, 0, 100},
      {SpanKind::kLeg, 0, 0, 10, 80},
      {SpanKind::kLeg, 1, 0, 20, 30},  // inside leg 0's interval
  };
  EXPECT_EQ(self_times_ns(spans)[0], 30);
}

TEST(Tally, CountsIncompleteAndMismatchedItems) {
  Tally t;
  t.attempt(100, 100);
  t.attempt(100, 90);  // a repetition that stopped 10 slots early
  t.mismatch(2);       // two slots disagreed with their reference
  EXPECT_EQ(t.attempted, 200);
  EXPECT_EQ(t.failed, 12);
  EXPECT_DOUBLE_EQ(t.failed_frac(), 0.06);
  EXPECT_EQ(Tally{}.failed_frac(), 0.0);
}

TEST(Draws, EverySeedCyclesTheWholePool) {
  for (std::uint64_t seed : {1u, 7u, 1000u}) {
    std::vector<int> seen(4, 0);
    for (std::size_t rep = 0; rep < 8; ++rep) {
      const std::size_t d = draw_index(seed, rep, 4);
      ASSERT_LT(d, 4u);
      EXPECT_EQ(draw_seed(seed, rep, 4), d + 1);
      ++seen[d];
    }
    EXPECT_EQ(seen, std::vector<int>(4, 2)) << seed;  // two whole cycles
  }
  EXPECT_NE(draw_index(1, 0, 4), draw_index(2, 0, 4));  // the seed picks the start
  std::size_t reps = 0;
  EXPECT_EQ(repeat_cycles(0.0, 3, [&](std::size_t i) { EXPECT_EQ(i, reps++); }), 3u);
}

TEST(Draws, TimingUsesEachDrawsFastestRepetition) {
  Phase phase;
  phase.reps = {
      {.draw = 0, .setup_s = 1.0, .run_s = 2.0, .items = 10, .latency_ms = {5, 1, 9}},
      {.draw = 1, .setup_s = 3.0, .run_s = 4.0, .items = 20, .latency_ms = {7}},
      {.draw = 0, .setup_s = 2.0, .run_s = 1.0, .items = 10, .latency_ms = {6, 2, 3}},
  };
  const auto fastest = phase.fastest_per_draw();
  ASSERT_EQ(fastest.size(), 2u);
  EXPECT_EQ(fastest[0], &phase.reps[2]);
  EXPECT_EQ(fastest[1], &phase.reps[1]);
  EXPECT_DOUBLE_EQ(phase.throughput(), 30.0 / 5.0);
  EXPECT_DOUBLE_EQ(phase.total_run_s(), 7.0);
  // Per item: the lowest latency over the draw's repetitions.
  EXPECT_EQ(phase.fastest_latencies_ms(), (std::vector<double>{5, 1, 3, 7}));

  Report report;
  add_end_to_end(report, phase, Quality{}, "slot");
  ASSERT_EQ(report.end_to_end[3].name, "setup_s");
  EXPECT_EQ(report.end_to_end[3].value, 2.0);  // median over the fastest repetitions
}

// A small serve trace, run through the ServiceLoop with and without the
// forwarding wrappers (traced, so every wrapper code path runs).
struct SmallServe {
  static constexpr std::int64_t kHorizon = 40;
  PaperScenario scenario = make_serve_scenario(2, 6, 11);
  std::shared_ptr<const ClusterConfig> config =
      std::make_shared<const ClusterConfig>(scenario.config);
  std::string jobs_csv = job_trace_to_csv(materialize_arrivals(*scenario.arrivals, kHorizon));
  std::string prices_csv = price_trace_to_csv(materialize_prices(*scenario.prices, kHorizon));

  struct Recorder final : SlotInspector {
    std::vector<MatrixD> routed, served;
    void inspect(const SlotRecord& r) override {
      routed.push_back(*r.routed);
      served.push_back(*r.served_work);
    }
  };

  std::shared_ptr<Recorder> run(bool wrapped, SimMetrics* metrics) const {
    SlotClock clock(kHorizon);
    SpanLog spans;
    DecideTrace trace;
    trace.spans = &spans;
    obs::CounterRegistry counters;
    obs::CountersScope scope(&counters);
    std::shared_ptr<Scheduler> scheduler =
        std::make_shared<GreFarScheduler>(config, paper_grefar_params(2.0, 0.5));
    if (wrapped) scheduler = std::make_shared<DecideProbe>(scheduler, &clock, &trace);
    ServiceLoop loop(config, scenario.availability, scheduler,
                     std::make_unique<StreamingJobTraceSource>(
                         std::make_unique<std::istringstream>(jobs_csv), config->num_job_types()),
                     std::make_unique<StreamingPriceTraceSource>(
                         std::make_unique<std::istringstream>(prices_csv),
                         config->num_data_centers()));
    auto recorder = std::make_shared<Recorder>();
    if (wrapped) {
      loop.add_flush_inspector(std::make_shared<InspectProbe>(recorder, &clock, &spans, -1));
    } else {
      loop.add_flush_inspector(recorder);
    }
    EXPECT_TRUE(loop.run().ok());
    *metrics = loop.metrics();
    if (wrapped) {
      EXPECT_EQ(trace.samples.size(), static_cast<std::size_t>(kHorizon));
      EXPECT_GT(counters.counter("pgd.iterations"), 0u);
      for (std::int64_t ns : clock.latency_ns) EXPECT_GE(ns, 0);
    }
    return recorder;
  }
};

TEST(Probes, WrappedServeDecisionsAreBitwiseEqual) {
  SmallServe f;
  SimMetrics plain_metrics(1, 1), wrapped_metrics(1, 1);
  auto plain = f.run(false, &plain_metrics);
  auto wrapped = f.run(true, &wrapped_metrics);
  ASSERT_EQ(plain->routed.size(), static_cast<std::size_t>(SmallServe::kHorizon));
  ASSERT_EQ(wrapped->routed.size(), plain->routed.size());
  for (std::size_t t = 0; t < plain->routed.size(); ++t) {
    EXPECT_EQ(wrapped->routed[t], plain->routed[t]) << t;
    EXPECT_EQ(wrapped->served[t], plain->served[t]) << t;
  }
  EXPECT_EQ(count_slot_mismatches(plain_metrics, wrapped_metrics), 0);
  EXPECT_EQ(fingerprint(plain_metrics), fingerprint(wrapped_metrics));
}

TEST(Probes, MismatchCountSeesASingleChangedSlot) {
  SmallServe f;
  SimMetrics a(1, 1), b(1, 1);
  f.run(false, &a);
  f.run(false, &b);
  EXPECT_EQ(count_slot_mismatches(a, b), 0);
  SimMetrics c = a;
  c.energy_cost = TimeSeries();
  for (std::size_t t = 0; t < a.slots(); ++t) {
    c.energy_cost.add(a.energy_cost.values()[t] + (t == 7 ? 1e-12 : 0.0));
  }
  EXPECT_EQ(count_slot_mismatches(a, c), 1);
  EXPECT_NE(fingerprint(a), fingerprint(c));
  EXPECT_EQ(count_slot_mismatches(a, c, 7), 0);  // the prefix before slot 7
}

}  // namespace
}  // namespace perfbench

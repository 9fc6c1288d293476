// scale-1m: the million-account scenario stepped by the benchmark. One
// repetition builds the scenario, scheduler and engine (setup) and times
// kSteps calls of step(), each one latency sample. A cycle of two draws
// holds 50 samples (a p75).
#include <memory>
#include <sstream>

#include "check/invariant_auditor.h"
#include "core/grefar.h"
#include "harness/probes.h"
#include "harness/workloads.h"
#include "scenario/large_scale.h"
#include "sim/engine.h"

namespace perfbench {
namespace {

using namespace grefar;

constexpr std::int64_t kSteps = 25;
constexpr std::size_t kPool = 2;
constexpr std::int64_t kAuditedSlots = 2;
constexpr double kV = 2.0;
constexpr double kBeta = 0.5;

LargeScaleOptions scenario_options(std::uint64_t seed) {
  LargeScaleOptions o;
  o.seed = seed;
  return o;
}

struct Tracing {
  SpanLog spans;
  DecideTrace decide;
  obs::CounterRegistry counters;
  obs::ProfileRegistry profile;
  std::vector<double> scenario_ms;
  std::int64_t slots = 0;
};

struct RepResult {
  std::uint64_t fingerprint = 0;
  Quality quality;
  std::optional<SimMetrics> metrics;  // repetition 0 only
};

RepResult scale_rep(const Options& opt, std::size_t rep, Phase& phase, Tally& tally,
                    Tracing* tr) {
  const std::int32_t run_span =
      tr != nullptr ? tr->spans.add(SpanKind::kRun, static_cast<std::int64_t>(rep), -1, 0, 0)
                    : -1;
  const std::int64_t t0 = now_ns();
  LargeScaleScenario scenario =
      make_large_scale_scenario(scenario_options(draw_seed(opt.seed, rep, kPool)));
  if (tr != nullptr) tr->scenario_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  auto scheduler = std::make_shared<DecideProbe>(
      std::make_shared<GreFarScheduler>(scenario.config, large_scale_grefar_params(kV, kBeta)),
      nullptr, tr != nullptr ? &tr->decide : nullptr);
  SimulationEngine engine(scenario.config, scenario.prices, scenario.availability,
                          scenario.arrivals, scheduler);
  const std::int64_t t1 = now_ns();

  Repetition& r = phase.reps.emplace_back();
  r.draw = draw_index(opt.seed, rep, kPool);
  for (std::int64_t t = 0; t < kSteps; ++t) {
    const std::int64_t a = now_ns();
    std::int32_t step_span = -1;
    if (tr != nullptr) {
      step_span = tr->spans.add(SpanKind::kStep, t, run_span, a, 0);
      tr->decide.parent = step_span;
    }
    engine.step();
    const std::int64_t b = now_ns();
    if (tr != nullptr) tr->spans.set_times(step_span, a, b);
    r.latency_ms.push_back(static_cast<double>(b - a) / 1e6);
  }
  const std::int64_t t2 = now_ns();
  if (tr != nullptr) {
    tr->spans.set_times(run_span, t1, t2);
    tr->slots += kSteps;
  }
  tally.attempt(kSteps, engine.slot());
  r.setup_s = static_cast<double>(t1 - t0) / 1e9;
  r.run_s = static_cast<double>(t2 - t1) / 1e9;
  r.items = engine.slot();
  RepResult out;
  out.fingerprint = fingerprint(engine.metrics());
  out.quality = quality_of(engine.metrics(), kBeta);
  if (rep == 0) out.metrics = engine.metrics();
  return out;
}

// A prefix under the InvariantAuditor in throw mode. The auditor forces the
// dense per-slot path, so the prefix also checks sparse == dense bitwise
// against the production run. Returns mismatching slots; throws on a
// violated invariant.
std::int64_t audited_prefix_mismatches(const Options& opt, const SimMetrics& production) {
  LargeScaleScenario scenario =
      make_large_scale_scenario(scenario_options(draw_seed(opt.seed, 0, kPool)));
  const GreFarParams params = large_scale_grefar_params(kV, kBeta);
  SimulationEngine engine(scenario.config, scenario.prices, scenario.availability,
                          scenario.arrivals,
                          std::make_shared<GreFarScheduler>(scenario.config, params));
  InvariantAuditorOptions audit;
  audit.throw_on_violation = true;
  audit.expect_queue_bounded_ask = true;
  audit.r_max = params.r_max;
  audit.h_max = params.h_max;
  auto auditor = std::make_shared<InvariantAuditor>(scenario.config, audit);
  engine.set_inspector(auditor);
  engine.run(kAuditedSlots);
  return count_slot_mismatches(production, engine.metrics(),
                               static_cast<std::size_t>(kAuditedSlots));
}

}  // namespace

Report run_scale_1m(const Options& opt) {
  Report report;
  const double seconds = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  Phase phase;
  std::optional<SimMetrics> first;
  std::vector<std::uint64_t> fingerprints;
  std::vector<Quality> qualities;
  repeat_cycles(seconds, kPool, [&](std::size_t rep) {
    RepResult r = scale_rep(opt, rep, phase, report.tally, nullptr);
    if (rep == 0) first = std::move(r.metrics);
    fingerprints.push_back(r.fingerprint);
    if (rep < kPool) qualities.push_back(r.quality);
  });
  add_end_to_end(report, phase, mean_quality(qualities), "slot");

  const std::int64_t audit_bad = audited_prefix_mismatches(opt, *first);
  report.tally.mismatch(audit_bad);
  report.notes.push_back("audited dense prefix of " + std::to_string(kAuditedSlots) +
                         " slots: clean, " + std::to_string(audit_bad) +
                         " slots differ from the sparse run");
  if (!opt.trace) return report;

  Tracing tr;
  tr.decide.spans = &tr.spans;
  Phase traced;
  {
    obs::CountersScope counters(&tr.counters);
    obs::ProfileScope profile(&tr.profile);
    repeat_cycles(opt.seconds / 2.0, kPool, [&](std::size_t rep) {
      const RepResult r = scale_rep(opt, rep, traced, report.tally, &tr);
      if (rep < fingerprints.size() && r.fingerprint != fingerprints[rep]) {
        report.tally.mismatch(kSteps);
        report.notes.push_back("traced repetition " + std::to_string(rep) +
                               " differs from the untraced one");
      }
    });
  }
  const double slots = static_cast<double>(tr.slots);
  add_registry_layers(report, tr.profile, tr.counters, slots);
  std::vector<double> decide_us;
  double decide_total_us = 0.0;
  for (const DecideSample& s : tr.decide.samples) {
    decide_us.push_back(s.us);
    decide_total_us += s.us;
  }
  const double wall_ms = traced.total_run_s() * 1e3;
  report.layer("core.decide_p50_us", percentile(decide_us, 500));
  report.layer("core.decide_p99_us", percentile(decide_us, 990));
  report.layer("core.decide_share", decide_total_us / 1e3 / wall_ms);
  report.layer("scenario.build_ms", median(tr.scenario_ms));

  const auto kinds = totals_by_kind(tr.spans.snapshot());
  auto self_ms = [&](SpanKind k) { return kinds.count(k) ? kinds.at(k).self_ns / 1e6 : 0.0; };
  std::ostringstream layers;
  layers << "layer self times (ms): step " << self_ms(SpanKind::kStep) << "; decide "
         << self_ms(SpanKind::kDecide) << "; loop remainder " << self_ms(SpanKind::kRun);
  report.notes.push_back(layers.str());
  add_reconciliation(report, phase.throughput(), traced.throughput(), wall_ms,
                     self_ms(SpanKind::kStep) + self_ms(SpanKind::kDecide));
  if (!opt.span_path.empty() && !tr.spans.write_jsonl(opt.span_path)) {
    throw std::runtime_error("cannot write spans to " + opt.span_path);
  }
  return report;
}

}  // namespace perfbench

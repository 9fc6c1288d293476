// sweep-grid: the sweep leg. One repetition runs a fresh SweepEngine over
// seeds x beta in {0, 100} x a V grid on the paper scenario; setup is run()
// up to leg 0's pre_run (plan resolution and artifact materialization).
#include <algorithm>
#include <numeric>
#include <sstream>

#include "harness/workloads.h"
#include "parallel/thread_pool.h"
#include "scenario/paper_scenario.h"
#include "sweep/sweep_engine.h"

namespace perfbench {
namespace {

using namespace grefar;

constexpr std::size_t kSeeds = 4;
constexpr std::size_t kVCount = 8;
constexpr std::int64_t kHorizon = 300;
constexpr std::size_t kMaxWorkers = 2;
// Sixteen grids of 64 legs: one cycle holds 1024 leg latencies (a p99).
constexpr std::size_t kPool = 16;

sweep::SweepAxis axis(const char* name, std::vector<double> values) {
  sweep::SweepAxis a;
  a.name = name;
  a.values = std::move(values);
  return a;
}

struct Grid {
  std::vector<std::uint64_t> seeds;
  std::vector<double> betas{0.0, 100.0};
  std::vector<double> vs;

  explicit Grid(std::uint64_t seed) {
    for (std::size_t s = 0; s < kSeeds; ++s) seeds.push_back(seed * kSeeds + s);
    for (std::size_t i = 0; i < kVCount; ++i) {
      vs.push_back(0.5 + 19.5 * static_cast<double>(i) / static_cast<double>(kVCount - 1));
    }
  }

  // Scenario construction is timed here, on the caller's side of the
  // SweepSpec callback; `build_ns` accumulates it (materialization is serial).
  sweep::SweepSpec spec(std::int64_t* build_ns) const {
    sweep::SweepSpec s;
    std::vector<double> seed_values;
    for (std::uint64_t v : seeds) seed_values.push_back(static_cast<double>(v));
    s.axes = {axis("seed", seed_values), axis("beta", betas), axis("V", vs)};
    s.horizon = kHorizon;
    s.scenario = [this, build_ns](const sweep::SweepPoint& p) {
      const std::int64_t t0 = now_ns();
      PaperScenario scenario = make_paper_scenario(seeds[p.index(0)]);
      if (build_ns != nullptr) *build_ns += now_ns() - t0;
      return scenario;
    };
    s.plan = [this](const sweep::SweepPoint& p) {
      sweep::LegPlan plan;
      plan.scenario_key = "paper/seed=" + std::to_string(seeds[p.index(0)]);
      plan.grefar = sweep::GreFarLegSpec{paper_grefar_params(vs[p.index(2)], betas[p.index(1)]), {}};
      return plan;
    };
    return s;
  }
};

struct LegOutcome {
  std::uint64_t fingerprint = 0;
  Quality quality;
};

struct Tracing {
  SpanLog spans;
  obs::CounterRegistry counters;
  obs::ProfileRegistry profile;
  std::vector<double> setup_ms;
  std::vector<double> leg_ms;
  std::vector<double> efficiency;
  std::int64_t build_ns = 0;
  std::size_t scenarios = 0;
  double leg_total_ms = 0.0;
};

std::vector<LegOutcome> sweep_rep(const Grid& grid, std::size_t draw, std::size_t workers,
                                  std::size_t rep, Phase& phase, Tally& tally, Tracing* tr) {
  sweep::SweepOptions options;
  options.jobs = workers;
  options.audit = AuditMode::kOff;
  const sweep::SweepSpec spec = grid.spec(tr != nullptr ? &tr->build_ns : nullptr);
  const std::size_t legs = spec.num_legs();
  std::vector<LegOutcome> out(legs);
  std::vector<std::int64_t> leg_start(legs, 0);
  std::int64_t leg0_ns = 0;
  const std::int32_t run_span =
      tr != nullptr ? tr->spans.add(SpanKind::kRun, static_cast<std::int64_t>(rep), -1, 0, 0)
                    : -1;

  sweep::SweepEngine engine(options);
  const std::int64_t t0 = now_ns();
  const sweep::SweepRunStats stats = engine.run(
      spec,
      [&](std::size_t leg, SimulationEngine& e) {
        if (tr != nullptr) {
          tr->spans.add(SpanKind::kLeg, static_cast<std::int64_t>(leg), run_span,
                        leg_start[leg], now_ns());
        }
        const double beta = grid.betas[(leg / kVCount) % grid.betas.size()];
        out[leg] = {fingerprint(e.metrics()), quality_of(e.metrics(), beta)};
      },
      [&](std::size_t leg, SimulationEngine&) {
        if (leg != 0 && tr == nullptr) return;
        const std::int64_t t = now_ns();
        if (leg == 0) leg0_ns = t;
        if (tr != nullptr) leg_start[leg] = t;
      });
  const std::int64_t t1 = now_ns();
  if (tr != nullptr) tr->spans.set_times(run_span, t0, t1);

  tally.attempt(static_cast<std::int64_t>(legs), static_cast<std::int64_t>(stats.legs));
  Repetition& r = phase.reps.emplace_back();
  r.draw = draw;
  r.setup_s = static_cast<double>(leg0_ns - t0) / 1e9;
  r.run_s = static_cast<double>(t1 - leg0_ns) / 1e9;
  r.items = static_cast<std::int64_t>(stats.legs);
  r.latency_ms = stats.leg_ms;
  if (tr != nullptr) {
    const double wall_ms = static_cast<double>(t1 - t0) / 1e6;
    const double legs_ms = std::accumulate(stats.leg_ms.begin(), stats.leg_ms.end(), 0.0);
    tr->setup_ms.push_back(static_cast<double>(leg0_ns - t0) / 1e6);
    tr->leg_ms.insert(tr->leg_ms.end(), stats.leg_ms.begin(), stats.leg_ms.end());
    tr->efficiency.push_back(legs_ms / (static_cast<double>(stats.workers) * wall_ms));
    tr->scenarios += stats.unique_scenarios;
    tr->leg_total_ms += legs_ms;
  }
  return out;
}

// Sampled legs re-run on a fresh engine per leg (reuse_engines = false);
// their fingerprints must equal the arena run's. Returns mismatching legs.
std::int64_t sampled_leg_mismatches(const Grid& grid, const std::vector<LegOutcome>& ref) {
  const sweep::SweepSpec full = grid.spec(nullptr);
  const std::size_t legs = full.num_legs();
  const std::vector<std::size_t> sample = {0, legs / 3, (2 * legs) / 3 + 1, legs - 1};
  sweep::SweepSpec spec;
  std::vector<double> sampled;
  for (std::size_t leg : sample) sampled.push_back(static_cast<double>(leg));
  spec.axes = {axis("sampled_leg", sampled)};
  spec.horizon = full.horizon;
  spec.scenario = [&](const sweep::SweepPoint& p) {
    return full.scenario(full.point(sample[p.index(0)]));
  };
  spec.plan = [&](const sweep::SweepPoint& p) { return full.plan(full.point(sample[p.index(0)])); };
  sweep::SweepOptions options;
  options.reuse_engines = false;
  options.audit = AuditMode::kOff;
  std::int64_t bad = 0;
  sweep::SweepEngine(options).run(spec, [&](std::size_t i, SimulationEngine& e) {
    if (fingerprint(e.metrics()) != ref[sample[i]].fingerprint) ++bad;
  });
  return bad;
}

}  // namespace

Report run_sweep_grid(const Options& opt) {
  Report report;
  const std::size_t workers = std::max<std::size_t>(1, std::min(opt.cpus, kMaxWorkers));
  report.notes.push_back("sweep workers: " + std::to_string(workers) + " of " +
                         std::to_string(opt.cpus) + " usable cores");

  // Every repetition sweeps the scenario seeds of its grid draw.
  const double seconds = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  auto grid_of = [&](std::size_t rep) { return Grid(draw_seed(opt.seed, rep, kPool)); };
  Phase phase;
  std::vector<std::vector<LegOutcome>> outcomes;
  repeat_cycles(seconds, kPool, [&](std::size_t rep) {
    outcomes.push_back(sweep_rep(grid_of(rep), draw_index(opt.seed, rep, kPool), workers, rep,
                                 phase, report.tally, nullptr));
  });
  std::vector<Quality> qualities;
  for (std::size_t rep = 0; rep < kPool; ++rep) {
    for (const LegOutcome& leg : outcomes[rep]) qualities.push_back(leg.quality);
  }
  add_end_to_end(report, phase, mean_quality(qualities), "leg");

  const std::int64_t sample_bad = sampled_leg_mismatches(grid_of(0), outcomes[0]);
  report.tally.mismatch(sample_bad);
  report.notes.push_back("sampled legs vs reuse_engines=false: " +
                         std::to_string(sample_bad) + " of 4 differ");
  if (!opt.trace) return report;

  Tracing tr;
  Phase traced;
  std::size_t reps = 0;
  {
    obs::CountersScope counters(&tr.counters);
    obs::ProfileScope profile(&tr.profile);
    reps = repeat_cycles(opt.seconds / 2.0, kPool, [&](std::size_t rep) {
      const std::vector<LegOutcome> legs =
          sweep_rep(grid_of(rep), draw_index(opt.seed, rep, kPool), workers, rep, traced,
                    report.tally, &tr);
      if (rep >= outcomes.size()) return;
      for (std::size_t leg = 0; leg < legs.size(); ++leg) {
        if (legs[leg].fingerprint != outcomes[rep][leg].fingerprint) report.tally.mismatch(1);
      }
    });
  }
  const double per_rep = 1.0 / static_cast<double>(reps);
  const double slots = static_cast<double>(tr.leg_ms.size()) * static_cast<double>(kHorizon);
  add_registry_layers(report, tr.profile, tr.counters, slots);
  report.layer("sweep.setup_ms", median(tr.setup_ms));
  report.layer("sweep.leg_ms_p50", percentile(tr.leg_ms, 500));
  report.layer("sweep.leg_ms_p99", percentile(tr.leg_ms, 990));
  report.layer("sweep.parallel_efficiency", median(tr.efficiency));
  for (const char* name : {"sweep.artifact_hits", "sweep.artifact_misses", "sweep.engine_reuses",
                           "sweep.engine_builds", "sweep.scheduler_reuses",
                           "sweep.scheduler_builds"}) {
    report.layer(name, static_cast<double>(tr.counters.counter(name)) * per_rep);
  }
  report.layer("scenario.build_ms",
               static_cast<double>(tr.build_ns) / 1e6 / static_cast<double>(tr.scenarios));

  // Worker-time reconciliation: legs plus setup (which holds every worker)
  // against workers x wall. The remainder is idle workers and arena resets.
  const double setup_ms = std::accumulate(tr.setup_ms.begin(), tr.setup_ms.end(), 0.0);
  const double wall_ms =
      static_cast<double>(workers) * (traced.total_run_s() * 1e3 + setup_ms);
  const auto kinds = totals_by_kind(tr.spans.snapshot());
  const double leg_span_ms =
      kinds.count(SpanKind::kLeg) ? kinds.at(SpanKind::kLeg).total_ns / 1e6 : 0.0;
  std::ostringstream layers;
  layers << "layer self times (ms): setup " << setup_ms << "; leg spans " << leg_span_ms
         << " (engine.run " << tr.leg_total_ms << "); run remainder "
         << (kinds.count(SpanKind::kRun) ? kinds.at(SpanKind::kRun).self_ns / 1e6 : 0.0);
  report.notes.push_back(layers.str());
  add_reconciliation(report, phase.throughput(), traced.throughput(), wall_ms,
                     leg_span_ms + static_cast<double>(workers) * setup_ms);
  if (!opt.span_path.empty() && !tr.spans.write_jsonl(opt.span_path)) {
    throw std::runtime_error("cannot write spans to " + opt.span_path);
  }
  return report;
}

}  // namespace perfbench

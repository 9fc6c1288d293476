#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>

#include "harness/workloads.h"

namespace perfbench {

const std::vector<LayerSpec>& layer_specs() {
  static const std::vector<LayerSpec> specs = {
      {"trace.ingest_us_per_slot", "us"},
      {"trace.ingest_mb_per_s", "MB/s"},
      {"serve.ingest_stalls", "count"},
      {"serve.backpressure_blocks", "count"},
      {"serve.input_queue_high_water", "slots"},
      {"serve.flush_queue_high_water", "slots"},
      {"engine.observe_us", "us"},
      {"engine.decide_us", "us"},
      {"engine.route_us", "us"},
      {"engine.serve_us", "us"},
      {"engine.admit_us", "us"},
      {"engine.expire_us", "us"},
      {"engine.inspect_us", "us"},
      {"core.decide_p50_us", "us"},
      {"core.decide_p99_us", "us"},
      {"core.decide_share", "ratio"},
      {"per_slot.piece_reuse_ratio", "ratio"},
      {"per_slot.demand_sort_reuse_ratio", "ratio"},
      {"pgd.iterations_per_solve", "count"},
      {"pgd.projections_per_solve", "count"},
      {"pgd.subgradient_fallback_steps", "count"},
      {"fairness.active_accounts", "count"},
      {"fairness.sparse_skips", "count"},
      {"obs.flush_us_per_slot", "us"},
      {"obs.slot_log_bytes_per_slot", "B"},
      {"sweep.setup_ms", "ms"},
      {"sweep.leg_ms_p50", "ms"},
      {"sweep.leg_ms_p99", "ms"},
      {"sweep.parallel_efficiency", "ratio"},
      {"sweep.artifact_hits", "count"},
      {"sweep.artifact_misses", "count"},
      {"sweep.engine_reuses", "count"},
      {"sweep.engine_builds", "count"},
      {"sweep.scheduler_reuses", "count"},
      {"sweep.scheduler_builds", "count"},
      {"scenario.build_ms", "ms"},
      {"tail.pgd_iterations_p99_slots", "count"},
      {"tail.pgd_iterations_median_slots", "count"},
      {"tail.projections_p99_slots", "count"},
      {"tail.projections_median_slots", "count"},
      {"tail.piece_rebuilds_p99_slots", "count"},
      {"tail.piece_rebuilds_median_slots", "count"},
      {"bench.traced_throughput_per_s", "1/s"},
      {"bench.tracing_overhead_frac", "ratio"},
      {"bench.wall_ms", "ms"},
      {"bench.layer_sum_ms", "ms"},
      {"bench.unexplained_frac", "ratio"},
  };
  return specs;
}

void Report::layer(const std::string& name, double value) {
  for (const LayerSpec& spec : layer_specs()) {
    if (name == spec.name) {
      per_layer.push_back(Metric{name, std::isfinite(value) ? value : 0.0, spec.unit});
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

void complete_layers(Report& report) {
  std::vector<Metric> ordered;
  for (const LayerSpec& spec : layer_specs()) {
    auto it = std::find_if(report.per_layer.begin(), report.per_layer.end(),
                           [&](const Metric& m) { return m.name == spec.name; });
    ordered.push_back(it != report.per_layer.end() ? *it : Metric{spec.name, 0.0, spec.unit});
  }
  report.per_layer = std::move(ordered);
}

double Phase::total_run_s() const {
  double s = 0.0;
  for (const Repetition& r : reps) s += r.run_s;
  return s;
}

std::vector<const Repetition*> Phase::fastest_per_draw() const {
  std::map<std::size_t, const Repetition*> best;
  for (const Repetition& r : reps) {
    const Repetition*& b = best[r.draw];
    if (b == nullptr || r.run_s < b->run_s) b = &r;
  }
  std::vector<const Repetition*> out;
  for (const auto& [draw, r] : best) out.push_back(r);
  return out;
}

std::vector<double> Phase::fastest_latencies_ms() const {
  std::map<std::size_t, std::vector<double>> best;
  for (const Repetition& r : reps) {
    auto [it, fresh] = best.try_emplace(r.draw, r.latency_ms);
    std::vector<double>& b = it->second;
    if (fresh) continue;
    b.resize(std::min(b.size(), r.latency_ms.size()));
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::min(b[i], r.latency_ms[i]);
  }
  std::vector<double> out;
  for (const auto& [draw, b] : best) out.insert(out.end(), b.begin(), b.end());
  return out;
}

double Phase::throughput() const {
  double items = 0.0, secs = 0.0;
  for (const Repetition* r : fastest_per_draw()) {
    items += static_cast<double>(r->items);
    secs += r->run_s;
  }
  return items / secs;
}

Quality quality_of(const grefar::SimMetrics& metrics, double beta) {
  Quality q;
  q.objective = metrics.final_average_energy_cost() - beta * metrics.final_average_fairness();
  q.mean_delay = metrics.mean_delay();
  q.realized_value =
      metrics.slots() > 0
          ? metrics.total_realized_value() / static_cast<double>(metrics.slots())
          : 0.0;
  return q;
}

Quality mean_quality(const std::vector<Quality>& qualities) {
  Quality m;
  for (const Quality& q : qualities) {
    m.objective += q.objective;
    m.mean_delay += q.mean_delay;
    m.realized_value += q.realized_value;
  }
  const double n = static_cast<double>(std::max<std::size_t>(qualities.size(), 1));
  return {m.objective / n, m.mean_delay / n, m.realized_value / n};
}

void add_end_to_end(Report& report, const Phase& phase, const Quality& quality,
                    const char* item) {
  const std::vector<const Repetition*> fastest = phase.fastest_per_draw();
  const std::vector<double> latency_ms = phase.fastest_latencies_ms();
  std::vector<double> setup_s;
  for (const Repetition* r : fastest) setup_s.push_back(r->setup_s);
  const LatencySummary lat = summarize_latency(latency_ms);
  report.end_to_end = {
      {"throughput_per_s", phase.throughput(), "1/s"},
      {"latency_p50_ms", lat.p50, "ms"},
      {"latency_tail_ms", lat.tail_value, "ms"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"objective_avg", quality.objective, "cost/slot"},
      {"mean_delay_slots", quality.mean_delay, "slot"},
      {"realized_value", quality.realized_value, "value/slot"},
  };
  std::ostringstream note;
  note << "throughput over the fastest repetition of each input draw, latencies over "
          "each item's fastest (" << phase.reps.size() << " repetitions of "
       << fastest.size() << " draws); latency_tail_ms is "
       << lat.tail.label() << " of " << lat.samples << " " << item << " latencies ("
       << lat.tail.beyond << " beyond)";
  report.notes.push_back(note.str());
}

void add_registry_layers(Report& report, const grefar::obs::ProfileRegistry& profile,
                         const grefar::obs::CounterRegistry& counters, double slots) {
  static const char* kPhases[] = {"observe", "decide", "route", "serve",
                                  "admit",   "expire", "inspect"};
  for (const char* phase : kPhases) {
    const std::string key = std::string("engine.") + phase;
    auto it = profile.phases().find(key);
    if (it != profile.phases().end() && it->second.calls > 0) {
      report.layer(key + "_us",
                   it->second.total_ns / 1e3 / static_cast<double>(it->second.calls));
    }
  }
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  auto c = [&](const char* name) { return static_cast<double>(counters.counter(name)); };
  report.layer("per_slot.piece_reuse_ratio",
               ratio(c("per_slot.piece_reuses"),
                     c("per_slot.piece_reuses") + c("per_slot.piece_rebuilds")));
  report.layer("per_slot.demand_sort_reuse_ratio",
               ratio(c("per_slot.demand_sort_reuses"),
                     c("per_slot.demand_sort_reuses") + c("per_slot.demand_sorts")));
  const double solves = c("pgd.solves");
  report.layer("pgd.iterations_per_solve", ratio(c("pgd.iterations"), solves));
  report.layer("pgd.projections_per_solve", ratio(c("pgd.projections"), solves));
  report.layer("pgd.subgradient_fallback_steps",
               ratio(c("pgd.subgradient_fallback_steps"), solves));
  report.layer("fairness.active_accounts", ratio(c("fairness.active_accounts"), slots));
  report.layer("fairness.sparse_skips", ratio(c("fairness.sparse_skips"), slots));
}

void add_reconciliation(Report& report, double untraced_throughput,
                        double traced_throughput, double wall_ms, double layer_sum_ms) {
  const double overhead =
      untraced_throughput > 0.0 ? 1.0 - traced_throughput / untraced_throughput : 0.0;
  const double unexplained = wall_ms > 0.0 ? (wall_ms - layer_sum_ms) / wall_ms : 0.0;
  report.layer("bench.traced_throughput_per_s", traced_throughput);
  report.layer("bench.tracing_overhead_frac", overhead);
  report.layer("bench.wall_ms", wall_ms);
  report.layer("bench.layer_sum_ms", layer_sum_ms);
  report.layer("bench.unexplained_frac", unexplained);
  std::ostringstream note;
  note << "reconciliation: layer self times sum to " << layer_sum_ms << " ms of "
       << wall_ms << " ms wall; unexplained " << wall_ms - layer_sum_ms << " ms ("
       << 100.0 * unexplained << "%); tracing overhead " << 100.0 * overhead
       << "% (traced " << traced_throughput << "/s vs untraced " << untraced_throughput
       << "/s)";
  report.notes.push_back(note.str());
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::int64_t count_slot_mismatches(const grefar::SimMetrics& a, const grefar::SimMetrics& b,
                                   std::size_t limit) {
  const std::size_t na = std::min(a.slots(), limit);
  const std::size_t nb = std::min(b.slots(), limit);
  const std::size_t n = std::min(na, nb);
  std::int64_t bad = static_cast<std::int64_t>(std::max(na, nb) - n);
  const grefar::TimeSeries* series[][2] = {
      {&a.energy_cost, &b.energy_cost},
      {&a.fairness, &b.fairness},
      {&a.total_queue_jobs, &b.total_queue_jobs},
      {&a.realized_value, &b.realized_value},
      {&a.rejected_jobs, &b.rejected_jobs},
      {&a.abandoned_jobs, &b.abandoned_jobs},
  };
  for (std::size_t t = 0; t < n; ++t) {
    for (const auto& pair : series) {
      const double x = pair[0]->values()[t];
      const double y = pair[1]->values()[t];
      if (std::memcmp(&x, &y, sizeof(double)) != 0) {
        ++bad;
        break;
      }
    }
  }
  return bad;
}

std::uint64_t fingerprint(const grefar::SimMetrics& metrics) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t t = 0; t < metrics.slots(); ++t) {
    mix(metrics.energy_cost.values()[t]);
    mix(metrics.fairness.values()[t]);
    mix(metrics.total_queue_jobs.values()[t]);
    mix(metrics.realized_value.values()[t]);
  }
  for (double w : metrics.account_work_total) mix(w);
  mix(metrics.mean_delay());
  return h;
}

}  // namespace perfbench

// The benchmark's workloads and the report they fill. Each workload times
// repetitions of its unit of work over a fixed pool of input draws for the
// requested seconds (setup and run timed separately), checks its outputs
// against a reference outside the timed part, and, when traced, adds the
// per-layer numbers from a second, traced phase.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/spans.h"
#include "harness/stats.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "sim/metrics.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   // generated inputs and the slot log live here
  std::string span_path;  // traced runs write their spans here ("" = don't)
  std::size_t cpus = 1;   // usable cores; caps worker threads
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  Tally tally;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  // human-readable lines for the log

  void layer(const std::string& name, double value);
};

/// The per-layer metric names with their units, in report order. Every
/// traced run reports all of them (0 where the workload lacks the layer).
struct LayerSpec {
  const char* name;
  const char* unit;
};
const std::vector<LayerSpec>& layer_specs();
/// Adds 0 for every layer metric the workload did not fill and orders the
/// list like layer_specs().
void complete_layers(Report& report);

/// One repetition of a workload's unit of work on one input draw.
struct Repetition {
  std::size_t draw = 0;            // index in the workload's pool
  double setup_s = 0.0;
  double run_s = 0.0;              // the timed part
  std::int64_t items = 0;          // slots or legs completed
  std::vector<double> latency_ms;  // one per item
};

/// What one timed phase (untraced or traced) collects.
struct Phase {
  std::vector<Repetition> reps;

  double total_run_s() const;
  /// The repetition with the shortest timed part for each draw, in draw
  /// order. The machine's speed drifts by 10-30% over seconds, so timing
  /// metrics use each draw's least disturbed repetition.
  std::vector<const Repetition*> fastest_per_draw() const;
  /// Items per second of the timed part over fastest_per_draw().
  double throughput() const;
  /// Per item of every draw, its lowest latency over the draw's
  /// repetitions (which run the same items in the same order).
  std::vector<double> fastest_latencies_ms() const;
};

/// Runs `rep(index)` in whole cycles of `cycle` repetitions until `seconds`
/// of wall time have passed (at least one cycle). Returns the number run.
template <class Rep>
std::size_t repeat_cycles(double seconds, std::size_t cycle, Rep&& rep) {
  const std::int64_t start = now_ns();
  std::size_t n = 0;
  do {
    for (std::size_t i = 0; i < cycle; ++i) rep(n++);
  } while (static_cast<double>(now_ns() - start) < seconds * 1e9);
  return n;
}

/// Scenario seed of repetition `rep`. A workload measures a fixed pool of
/// `pool` input draws in whole cycles; the run's seed picks the draw it
/// starts from. Draws differ several-fold in cost (on serve-fair the PGD
/// tail slots are set by the inputs: 7 to 33 heavy slots in 300), so runs
/// over freshly drawn inputs disagree by more than any useful bound, while
/// whole cycles over one pool give every run the same work. The quality
/// metrics average one cycle; the timing metrics take each draw's fastest
/// repetition (Phase::fastest_per_draw).
inline std::size_t draw_index(std::uint64_t seed, std::size_t rep, std::size_t pool) {
  return static_cast<std::size_t>((seed + rep) % pool);
}
inline std::uint64_t draw_seed(std::uint64_t seed, std::size_t rep, std::size_t pool) {
  return 1 + draw_index(seed, rep, pool);
}

/// Schedule quality, deterministic per seed: time-average g(t) = e(t) -
/// beta f(t), mean job delay, and value realized per slot.
struct Quality {
  double objective = 0.0;
  double mean_delay = 0.0;
  double realized_value = 0.0;
};
Quality quality_of(const grefar::SimMetrics& metrics, double beta);
Quality mean_quality(const std::vector<Quality>& qualities);

/// Appends the end-to-end metrics of an untraced phase: throughput and the
/// median set-up over fastest_per_draw(), latencies from
/// fastest_latencies_ms(). The tail percentile is chosen for the sample count of one
/// cycle, so it is the same percentile in every run.
void add_end_to_end(Report& report, const Phase& phase, const Quality& quality,
                    const char* item);

/// Per-layer numbers the program's own registries hold: engine.* phase
/// means, per-slot cache reuse ratios, PGD and fairness counters.
void add_registry_layers(Report& report, const grefar::obs::ProfileRegistry& profile,
                         const grefar::obs::CounterRegistry& counters, double slots);

/// Traced-vs-untraced throughput and the layer reconciliation.
void add_reconciliation(Report& report, double untraced_throughput,
                        double traced_throughput, double wall_ms, double layer_sum_ms);

double peak_rss_mb();

/// Number of slots whose per-slot series (energy, fairness, queue, value
/// ledger) differ bitwise between `a` and `b` over their first `limit`
/// slots, plus any difference in length within that limit.
std::int64_t count_slot_mismatches(const grefar::SimMetrics& a,
                                   const grefar::SimMetrics& b,
                                   std::size_t limit = static_cast<std::size_t>(-1));

/// Bit-exact digest of a run's per-slot series and per-account totals.
std::uint64_t fingerprint(const grefar::SimMetrics& metrics);

Report run_serve_fair(const Options& options);
Report run_serve_logged(const Options& options);
Report run_sweep_grid(const Options& options);
Report run_scale_1m(const Options& options);

}  // namespace perfbench

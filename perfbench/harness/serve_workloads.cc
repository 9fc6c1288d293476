// serve-fair and serve-logged: the served slot through ServiceLoop, fed from
// trace files the benchmark writes for each input draw. One repetition
// builds the scenario, scheduler and loop (setup) and serves the whole trace
// (run).
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "core/admission.h"
#include "core/grefar.h"
#include "harness/probes.h"
#include "harness/workloads.h"
#include "obs/trace_sink.h"
#include "obs/tracing_inspector.h"
#include "scenario/serve_scenario.h"
#include "serve/service_loop.h"
#include "trace/job_trace.h"
#include "trace/price_trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace grefar;

struct ServeConfig {
  const char* name;
  // v2 trace, threshold admission and the JSONL slot log, served serially:
  // with the log on, pipelining gains nothing, and its three-thread
  // handoffs made runs on a shared 4-core VM spread 14-34% against 3%.
  bool logged;
  double V;
  double beta;
  std::int64_t horizon;
};

constexpr std::size_t kDcs = 8;
constexpr std::size_t kTypes = 96;
constexpr double kTheta = 1.5;  // admission threshold on value density
// Four draws of 300 slots: one cycle holds 1200 latency samples (a p99).
constexpr std::size_t kPool = 4;

// serve-logged switches decay curves on, as the valued serve tests do.
PaperScenario make_cluster(const ServeConfig& cfg, std::uint64_t seed) {
  PaperScenario s = make_serve_scenario(kDcs, kTypes, seed);
  if (cfg.logged) {
    for (std::size_t j = 0; j < s.config.job_types.size(); ++j) {
      s.config.job_types[j].decay = j % 2 == 0 ? DecayKind::kExponential : DecayKind::kLinear;
    }
  }
  return s;
}

struct Inputs {
  std::string jobs_path;
  std::string prices_path;
  double bytes = 0.0;
};
using InputFiles = std::map<std::uint64_t, Inputs>;  // by draw seed

// v1: the scenario's arrivals as counts. v2: the same counts, each batch
// annotated with a value, decay rate and deadline drawn from the seed.
Inputs write_inputs(const ServeConfig& cfg, const PaperScenario& s, std::uint64_t seed,
                    const std::string& dir) {
  Inputs in;
  Status st;
  if (!cfg.logged) {
    st = write_serve_traces(s, cfg.horizon, dir, in.jobs_path, in.prices_path);
  } else {
    in.jobs_path = dir + "/jobs_v2.csv";
    in.prices_path = dir + "/prices.csv";
    std::vector<std::vector<ArrivalBatch>> slots(static_cast<std::size_t>(cfg.horizon));
    std::vector<std::int64_t> counts;
    const Rng root(seed ^ 0x5E12BA7CULL);
    for (std::int64_t t = 0; t < cfg.horizon; ++t) {
      s.arrivals->arrivals_into(t, counts);
      Rng r = root.fork(static_cast<std::uint64_t>(t));
      for (std::size_t j = 0; j < counts.size(); ++j) {
        if (counts[j] == 0) continue;
        ArrivalBatch b;
        b.type = j;
        b.count = counts[j];
        b.value = r.uniform(0.5, 3.0) * s.config.job_types[j].work;
        b.decay_rate = r.uniform(0.0, 0.2);
        b.deadline = r.bernoulli(0.5) ? r.uniform_int(2, 10) : kNoDeadline;
        slots[static_cast<std::size_t>(t)].push_back(b);
      }
    }
    if (slots.back().empty()) {  // pin the trace span to [0, horizon)
      slots.back().push_back(
          {.type = 0, .count = 1, .value = 1.0, .decay_rate = 0.0, .deadline = kNoDeadline});
    }
    st = write_valued_job_trace(in.jobs_path, slots);
    if (st.ok()) st = write_price_trace_streaming(*s.prices, cfg.horizon, in.prices_path);
  }
  if (!st.ok()) throw std::runtime_error("trace generation failed: " + st.error().message);
  in.bytes = static_cast<double>(std::filesystem::file_size(in.jobs_path) +
                                 std::filesystem::file_size(in.prices_path));
  return in;
}

// The draw's trace files, written (untimed) the first time it is served.
const Inputs& inputs_of(const ServeConfig& cfg, std::uint64_t seed, const std::string& dir,
                        InputFiles& files) {
  auto it = files.find(seed);
  if (it != files.end()) return it->second;
  std::filesystem::create_directories(dir);
  return files.emplace(seed, write_inputs(cfg, make_cluster(cfg, seed), seed, dir))
      .first->second;
}

// Span log and registries of the traced phase.
struct Tracing {
  SpanLog spans;
  DecideTrace decide;
  obs::CounterRegistry counters;
  obs::ProfileRegistry profile;
  std::vector<ServiceStats> stats;
  std::vector<double> scenario_ms;
  double log_bytes = 0.0;
  std::int64_t slots = 0;
};

struct RepResult {
  std::int64_t slots = 0;
  std::uint64_t fingerprint = 0;
  Quality quality;
  std::optional<SimMetrics> metrics;  // repetition 0 only
};

// One repetition: times setup (scenario, scheduler, loop) and serving the
// whole trace of its draw.
RepResult serve_rep(const ServeConfig& cfg, const Options& opt, std::size_t rep, Phase& phase,
                    Tally& tally, InputFiles& files, Tracing* tr) {
  const std::uint64_t seed = draw_seed(opt.seed, rep, kPool);
  const std::string dir = opt.work_dir + "/draw" + std::to_string(seed);
  const Inputs& in = inputs_of(cfg, seed, dir, files);
  SlotClock clock(static_cast<std::size_t>(cfg.horizon));
  const std::int32_t run_span =
      tr != nullptr ? tr->spans.add(SpanKind::kRun, static_cast<std::int64_t>(rep), -1, 0, 0)
                    : -1;
  if (tr != nullptr) tr->decide.parent = run_span;
  const std::string log_path = dir + "/slots.jsonl";

  const std::int64_t t0 = now_ns();
  PaperScenario scenario = make_cluster(cfg, seed);
  if (tr != nullptr) tr->scenario_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  auto config = std::make_shared<const ClusterConfig>(scenario.config);
  auto scheduler = std::make_shared<DecideProbe>(
      std::make_shared<GreFarScheduler>(config, paper_grefar_params(cfg.V, cfg.beta)), &clock,
      tr != nullptr ? &tr->decide : nullptr);
  ServiceLoopOptions loop_options;
  if (cfg.logged) {
    loop_options.admission = std::make_shared<ThresholdAdmission>(kTheta);
    loop_options.pipelined = false;
  }
  ServiceLoop loop(config, scenario.availability, scheduler,
                   std::make_unique<StreamingJobTraceSource>(in.jobs_path, kTypes),
                   std::make_unique<StreamingPriceTraceSource>(in.prices_path, kDcs),
                   loop_options);
  std::shared_ptr<obs::TraceSink> sink;
  std::shared_ptr<SlotInspector> slot_log;
  if (cfg.logged) {
    obs::TraceSink::Options sink_options;
    sink_options.path = log_path;
    sink = std::make_shared<obs::TraceSink>(sink_options);
    slot_log = std::make_shared<obs::TracingInspector>(sink);
  }
  loop.add_flush_inspector(std::make_shared<InspectProbe>(
      slot_log, &clock, tr != nullptr ? &tr->spans : nullptr, run_span));
  const std::int64_t t1 = now_ns();

  auto stats = loop.run();
  const std::int64_t t2 = now_ns();
  if (tr != nullptr) tr->spans.set_times(run_span, t1, t2);

  RepResult out;
  out.slots = loop.slots_processed();
  tally.attempt(cfg.horizon, stats.ok() ? out.slots : 0);
  if (!stats.ok()) {
    std::ostringstream err;
    err << cfg.name << " repetition " << rep << " failed: " << stats.error().message;
    throw std::runtime_error(err.str());
  }
  Repetition& r = phase.reps.emplace_back();
  r.draw = draw_index(opt.seed, rep, kPool);
  r.setup_s = static_cast<double>(t1 - t0) / 1e9;
  r.run_s = static_cast<double>(t2 - t1) / 1e9;
  r.items = out.slots;
  for (std::int64_t t = 0; t < out.slots; ++t) {
    const std::int64_t ns = clock.latency_ns[static_cast<std::size_t>(t)];
    if (ns >= 0) r.latency_ms.push_back(static_cast<double>(ns) / 1e6);
  }
  out.fingerprint = fingerprint(loop.metrics());
  out.quality = quality_of(loop.metrics(), cfg.beta);
  if (rep == 0) out.metrics = loop.metrics();
  if (sink != nullptr) {
    sink->flush();
    if (sink->records_written() != static_cast<std::uint64_t>(out.slots)) {
      tally.mismatch(std::max<std::int64_t>(
          1, out.slots - static_cast<std::int64_t>(sink->records_written())));
    }
    if (tr != nullptr) {
      tr->log_bytes += static_cast<double>(std::filesystem::file_size(log_path));
    }
    std::filesystem::remove(log_path);
  }
  if (tr != nullptr) {
    tr->stats.push_back(stats.value());
    tr->slots += out.slots;
  }
  return out;
}

// The DESIGN.md §14 contract: serving is bitwise equal to a batch engine
// replay of the same trace files. Returns the mismatching slot count.
std::int64_t batch_replay_mismatches(const ServeConfig& cfg, std::uint64_t seed,
                                     const Inputs& in, const SimMetrics& served) {
  PaperScenario scenario = make_cluster(cfg, seed);
  auto config = std::make_shared<const ClusterConfig>(scenario.config);
  std::shared_ptr<const ArrivalProcess> arrivals;
  if (cfg.logged) {
    auto trace = read_valued_job_trace(in.jobs_path, kTypes);
    if (!trace.ok()) throw std::runtime_error(trace.error().message);
    arrivals = std::make_shared<ValuedTableArrivals>(trace.value().slots, kTypes);
  } else {
    auto trace = read_job_trace(in.jobs_path, kTypes);
    if (!trace.ok()) throw std::runtime_error(trace.error().message);
    arrivals = std::make_shared<TableArrivals>(trace.value());
  }
  auto prices = read_price_trace(in.prices_path, kDcs);
  if (!prices.ok()) throw std::runtime_error(prices.error().message);
  SimulationEngine engine(
      config, std::make_shared<TablePriceModel>(prices.value()), scenario.availability,
      arrivals,
      std::make_shared<GreFarScheduler>(config, paper_grefar_params(cfg.V, cfg.beta)));
  if (cfg.logged) engine.set_admission_policy(std::make_shared<ThresholdAdmission>(kTheta));
  engine.run(cfg.horizon);
  std::int64_t bad = count_slot_mismatches(served, engine.metrics());
  if (served.account_work_total != engine.metrics().account_work_total && bad == 0) bad = 1;
  return bad;
}

// Standalone drain of the trace files through the streaming sources, one
// span per slot under one span per drain. Returns {us per slot, MB/s}.
std::pair<double, double> ingest_drain(const ServeConfig& cfg, const Inputs& in,
                                       SpanLog& spans) {
  std::vector<double> us_per_slot, mb_per_s;
  for (int drain = 0; drain < 3; ++drain) {
    StreamingJobTraceSource jobs(in.jobs_path, kTypes);
    StreamingPriceTraceSource prices(in.prices_path, kDcs);
    std::vector<std::int64_t> counts;
    std::vector<ArrivalBatch> batches;
    std::vector<double> price_row;
    const std::int32_t root = spans.open(SpanKind::kIngest, drain, -1);
    const std::int64_t t0 = now_ns();
    std::int64_t slots = 0;
    for (;; ++slots) {
      const std::int64_t s0 = now_ns();
      auto more = cfg.logged ? jobs.next_slot_batches_into(batches) : jobs.next_slot_into(counts);
      if (!more.ok()) throw std::runtime_error(more.error().message);
      if (!more.value()) break;
      auto more_prices = prices.next_slot_into(price_row);
      if (!more_prices.ok()) throw std::runtime_error(more_prices.error().message);
      spans.add(SpanKind::kIngestSlot, slots, root, s0, now_ns());
    }
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    spans.close(root);
    us_per_slot.push_back(secs * 1e6 / static_cast<double>(std::max<std::int64_t>(slots, 1)));
    mb_per_s.push_back(in.bytes / 1e6 / secs);
  }
  return {median(us_per_slot), median(mb_per_s)};
}

// Decide-tail attribution: mean solver work on the slots whose decide took
// longer than its p99, and on the slots around its median.
void add_tail_attribution(Report& report, const std::vector<DecideSample>& samples) {
  if (samples.empty()) return;
  std::vector<double> us;
  for (const DecideSample& s : samples) us.push_back(s.us);
  const double p45 = percentile(us, 450), p55 = percentile(us, 550), p99 = percentile(us, 990);
  struct Sum {
    double n = 0, iterations = 0, projections = 0, rebuilds = 0;
    void add(const DecideSample& s) {
      n += 1;
      iterations += static_cast<double>(s.pgd_iterations);
      projections += static_cast<double>(s.pgd_projections);
      rebuilds += static_cast<double>(s.piece_rebuilds);
    }
  } tail, mid;
  for (const DecideSample& s : samples) {
    if (s.us > p99) tail.add(s);
    if (s.us >= p45 && s.us <= p55) mid.add(s);
  }
  auto mean = [](double x, double n) { return n > 0 ? x / n : 0.0; };
  report.layer("tail.pgd_iterations_p99_slots", mean(tail.iterations, tail.n));
  report.layer("tail.pgd_iterations_median_slots", mean(mid.iterations, mid.n));
  report.layer("tail.projections_p99_slots", mean(tail.projections, tail.n));
  report.layer("tail.projections_median_slots", mean(mid.projections, mid.n));
  report.layer("tail.piece_rebuilds_p99_slots", mean(tail.rebuilds, tail.n));
  report.layer("tail.piece_rebuilds_median_slots", mean(mid.rebuilds, mid.n));
  std::ostringstream note;
  note << "decide tail: " << tail.n << " slots above p99 " << p99 << " us average "
       << mean(tail.iterations, tail.n) << " PGD iterations, "
       << mean(tail.projections, tail.n) << " projections, " << mean(tail.rebuilds, tail.n)
       << " piece rebuilds; " << mid.n << " median slots (" << p45 << "-" << p55
       << " us) average " << mean(mid.iterations, mid.n) << ", "
       << mean(mid.projections, mid.n) << ", " << mean(mid.rebuilds, mid.n);
  report.notes.push_back(note.str());
}

Report run_serve(const ServeConfig& cfg, const Options& opt) {
  Report report;
  // Untraced phase: the end-to-end numbers. A traced run splits its time
  // and replays the same repetitions traced.
  const double seconds = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  Phase phase;
  InputFiles files;
  std::optional<SimMetrics> first;
  std::vector<std::uint64_t> fingerprints;
  std::vector<Quality> qualities;
  repeat_cycles(seconds, kPool, [&](std::size_t rep) {
    RepResult r = serve_rep(cfg, opt, rep, phase, report.tally, files, nullptr);
    if (rep == 0) first = std::move(r.metrics);
    fingerprints.push_back(r.fingerprint);
    if (rep < kPool) qualities.push_back(r.quality);
  });
  add_end_to_end(report, phase, mean_quality(qualities), "slot");

  // Correctness outside the timed part: batch replay of repetition 0's files.
  const std::uint64_t seed0 = draw_seed(opt.seed, 0, kPool);
  const Inputs& in = files.at(seed0);
  const std::int64_t replay_bad = batch_replay_mismatches(cfg, seed0, in, *first);
  report.tally.mismatch(replay_bad);
  report.notes.push_back("batch replay of repetition 0's trace files: " +
                         std::to_string(replay_bad) + " mismatching slots of " +
                         std::to_string(cfg.horizon));
  if (!opt.trace) return report;

  Tracing tr;
  tr.decide.spans = &tr.spans;
  tr.decide.samples.reserve(static_cast<std::size_t>(cfg.horizon) * 16);
  const auto [ingest_us, ingest_mb] = ingest_drain(cfg, in, tr.spans);
  report.layer("trace.ingest_us_per_slot", ingest_us);
  report.layer("trace.ingest_mb_per_s", ingest_mb);
  Phase traced;
  {
    obs::CountersScope counters(&tr.counters);
    obs::ProfileScope profile(&tr.profile);
    repeat_cycles(opt.seconds / 2.0, kPool, [&](std::size_t rep) {
      const RepResult r = serve_rep(cfg, opt, rep, traced, report.tally, files, &tr);
      if (rep < fingerprints.size() && r.fingerprint != fingerprints[rep]) {
        report.tally.mismatch(r.slots);
        report.notes.push_back("traced repetition " + std::to_string(rep) +
                               " differs from the untraced one");
      }
    });
  }
  std::vector<double> stalls, blocks, in_hw, flush_hw;
  for (const ServiceStats& s : tr.stats) {
    stalls.push_back(static_cast<double>(s.ingest_stalls));
    blocks.push_back(static_cast<double>(s.backpressure_blocks));
    in_hw.push_back(static_cast<double>(s.input_queue_high_water));
    flush_hw.push_back(static_cast<double>(s.flush_queue_high_water));
  }
  report.layer("serve.ingest_stalls", median(stalls));
  report.layer("serve.backpressure_blocks", median(blocks));
  report.layer("serve.input_queue_high_water", median(in_hw));
  report.layer("serve.flush_queue_high_water", median(flush_hw));
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
  add_tail_attribution(report, tr.decide.samples);

  const auto kinds = totals_by_kind(tr.spans.snapshot());
  const auto flush = kinds.count(SpanKind::kFlush) ? kinds.at(SpanKind::kFlush) : KindTotals{};
  report.layer("obs.flush_us_per_slot", flush.total_ns / 1e3 / slots);
  report.layer("obs.slot_log_bytes_per_slot", tr.log_bytes / slots);
  report.layer("scenario.build_ms", median(tr.scenario_ms));

  // Solve-thread reconciliation: the engine's phases (decide measured by
  // the probe span, its remainder by the engine timer) against the wall
  // time of the served repetitions. Pipelined, the flush thread runs beside
  // the solve thread; serial, flush shares it and counts in the sum.
  double layer_ms = 0.0;
  std::ostringstream layers;
  layers << "layer self times (ms):";
  for (const auto& [name, p] : tr.profile.phases()) {
    if (name.rfind("engine.", 0) != 0) continue;
    double ms = p.total_ns / 1e6;
    if (name == "engine.decide") {
      const double probe_ms = kinds.count(SpanKind::kDecide)
                                  ? kinds.at(SpanKind::kDecide).self_ns / 1e6
                                  : 0.0;
      layers << " core.decide " << probe_ms << ";";
      ms -= probe_ms;
      layer_ms += probe_ms;
    }
    layers << " " << name << " " << ms << ";";
    layer_ms += ms;
  }
  if (cfg.logged) {
    layers << " flush (serial) " << flush.self_ns / 1e6 << ";";
    layer_ms += flush.self_ns / 1e6;
  } else {
    layers << " flush thread (overlapped) " << flush.self_ns / 1e6 << ";";
  }
  layers << " ingest drain "
         << (kinds.count(SpanKind::kIngest) ? kinds.at(SpanKind::kIngest).total_ns / 1e6 : 0.0)
         << " (standalone)";
  report.notes.push_back(layers.str());
  add_reconciliation(report, phase.throughput(), traced.throughput(), wall_ms,
                     layer_ms);
  if (!opt.span_path.empty() && !tr.spans.write_jsonl(opt.span_path)) {
    throw std::runtime_error("cannot write spans to " + opt.span_path);
  }
  return report;
}

}  // namespace

Report run_serve_fair(const Options& options) {
  return run_serve({"serve-fair", false, 4.0, 0.5, 300}, options);
}

Report run_serve_logged(const Options& options) {
  return run_serve({"serve-logged", true, 4.0, 0.0, 300}, options);
}

}  // namespace perfbench

// google-benchmark microbenchmarks for the serve-mode substrate: streaming
// CSV parse throughput, per-slot streaming trace pulls, and the full
// ServiceLoop (serial vs pipelined) over an on-disk trace.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/grefar.h"
#include "scenario/paper_scenario.h"
#include "scenario/serve_scenario.h"
#include "serve/service_loop.h"
#include "trace/stream_csv.h"
#include "trace/stream_source.h"

namespace grefar {
namespace {

/// A synthetic job trace document: `slots` slots x `types_per_slot` sparse
/// rows each, slot-sorted — the shape the ingest stage chews through.
std::string synthetic_job_doc(std::int64_t slots, std::size_t types_per_slot) {
  std::ostringstream os;
  os << "slot,type,count\n";
  for (std::int64_t t = 0; t < slots; ++t) {
    for (std::size_t j = 0; j < types_per_slot; ++j) {
      os << t << "," << j << "," << 1 + (t + static_cast<std::int64_t>(j)) % 7
         << "\n";
    }
  }
  return os.str();
}

void BM_StreamCsvParse(benchmark::State& state) {
  const std::string doc =
      synthetic_job_doc(state.range(0), static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    std::uint64_t rows = 0;
    Status st = parse_csv(doc, [&rows](CsvRow, std::uint64_t,
                                       const CsvPosition&) -> Status {
      ++rows;
      return {};
    });
    if (!st.ok()) state.SkipWithError(st.error().message.c_str());
    benchmark::DoNotOptimize(rows);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(doc.size()));
}
BENCHMARK(BM_StreamCsvParse)->Args({256, 16})->Args({256, 96});

void BM_StreamingJobSource(benchmark::State& state) {
  const auto slots = state.range(0);
  const auto types = static_cast<std::size_t>(state.range(1));
  const std::string doc = synthetic_job_doc(slots, types);
  std::vector<std::int64_t> counts;
  for (auto _ : state) {
    StreamingJobTraceSource source(std::make_unique<std::istringstream>(doc),
                                   types);
    std::int64_t emitted = 0;
    while (true) {
      auto more = source.next_slot_into(counts);
      if (!more.ok()) {
        state.SkipWithError(more.error().message.c_str());
        break;
      }
      if (!more.value()) break;
      ++emitted;
    }
    benchmark::DoNotOptimize(emitted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * slots);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(doc.size()));
}
BENCHMARK(BM_StreamingJobSource)->Args({256, 16})->Args({256, 96});

/// Shared on-disk traces for the ServiceLoop benches, generated once.
struct ServeFixture {
  PaperScenario scenario;
  std::shared_ptr<const ClusterConfig> config;
  std::string jobs_path, prices_path;
  std::int64_t horizon;

  ServeFixture(std::size_t dcs, std::size_t types, std::int64_t h)
      : scenario(make_serve_scenario(dcs, types, /*seed=*/17)), horizon(h) {
    config = std::make_shared<const ClusterConfig>(scenario.config);
    Status st = write_serve_traces(scenario, horizon, "/tmp", jobs_path,
                                   prices_path);
    GREFAR_CHECK_MSG(st.ok(), "trace generation failed");
  }
};

void run_service_loop(benchmark::State& state, bool pipelined) {
  static ServeFixture fixture(/*dcs=*/6, /*types=*/64, /*horizon=*/128);
  for (auto _ : state) {
    auto scheduler = std::make_shared<GreFarScheduler>(
        fixture.config, paper_grefar_params(4.0, 0.5));
    ServiceLoopOptions options;
    options.pipelined = pipelined;
    ServiceLoop loop(fixture.config, fixture.scenario.availability,
                     std::move(scheduler),
                     std::make_unique<StreamingJobTraceSource>(
                         fixture.jobs_path, fixture.config->num_job_types()),
                     std::make_unique<StreamingPriceTraceSource>(
                         fixture.prices_path, fixture.config->num_data_centers()),
                     options);
    auto stats = loop.run();
    if (!stats.ok()) state.SkipWithError(stats.error().message.c_str());
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          fixture.horizon);
}

void BM_ServiceLoopSerial(benchmark::State& state) {
  run_service_loop(state, /*pipelined=*/false);
}
BENCHMARK(BM_ServiceLoopSerial)->Unit(benchmark::kMillisecond);

void BM_ServiceLoopPipelined(benchmark::State& state) {
  run_service_loop(state, /*pipelined=*/true);
}
BENCHMARK(BM_ServiceLoopPipelined)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace grefar

#include "common/benchmark_main.h"

#include "sweep/artifact_cache.h"

#include <utility>
#include <vector>

#include "obs/counters.h"
#include "util/check.h"

namespace grefar {
namespace sweep {

ScenarioArtifacts materialize_scenario(const PaperScenario& scenario,
                                       std::int64_t horizon) {
  GREFAR_CHECK(horizon > 0);
  GREFAR_CHECK(scenario.prices != nullptr && scenario.availability != nullptr &&
               scenario.arrivals != nullptr);
  ScenarioArtifacts a;
  a.seed = scenario.seed;
  a.horizon = horizon;
  a.config = std::make_shared<const ClusterConfig>(scenario.config);
  a.admission = scenario.admission;

  // Prices: one N x horizon table. PriceModel::price is required to be a
  // pure function of (dc, t) per model seed, so reading it here replays the
  // exact lazy sequence.
  const std::size_t N = scenario.prices->num_data_centers();
  std::vector<std::vector<double>> series(N, std::vector<double>(
                                                 static_cast<std::size_t>(horizon)));
  for (std::size_t i = 0; i < N; ++i) {
    for (std::int64_t t = 0; t < horizon; ++t) {
      series[i][static_cast<std::size_t>(t)] = scenario.prices->price(i, t);
    }
  }
  a.prices = std::make_shared<TablePriceModel>(std::move(series));

  // Availability: one snapshot per slot.
  std::vector<Matrix<std::int64_t>> snapshots;
  snapshots.reserve(static_cast<std::size_t>(horizon));
  for (std::int64_t t = 0; t < horizon; ++t) {
    snapshots.push_back(scenario.availability->availability(t));
  }
  a.availability = std::make_shared<TableAvailability>(std::move(snapshots));

  // Arrivals: valued processes keep their batch annotations (value / decay /
  // deadline) through a ValuedTableArrivals; plain processes become count
  // tables. Either way the engine sees the same batches in the same order.
  const std::size_t J = scenario.arrivals->num_job_types();
  if (scenario.arrivals->has_valued_arrivals()) {
    std::vector<std::vector<ArrivalBatch>> slots(static_cast<std::size_t>(horizon));
    std::vector<ArrivalBatch> scratch;
    for (std::int64_t t = 0; t < horizon; ++t) {
      scenario.arrivals->valued_arrivals_into(t, scratch);
      slots[static_cast<std::size_t>(t)] = scratch;
    }
    a.arrivals = std::make_shared<ValuedTableArrivals>(std::move(slots), J);
  } else {
    std::vector<std::vector<std::int64_t>> counts(static_cast<std::size_t>(horizon));
    std::vector<std::int64_t> scratch;
    for (std::int64_t t = 0; t < horizon; ++t) {
      scenario.arrivals->arrivals_into(t, scratch);
      counts[static_cast<std::size_t>(t)] = scratch;
    }
    a.arrivals = std::make_shared<TableArrivals>(std::move(counts));
  }
  return a;
}

std::shared_ptr<const ScenarioArtifacts> ArtifactCache::get_or_build(
    const std::string& key, const Builder& builder) {
  GREFAR_CHECK(builder != nullptr);
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    obs::count("sweep.artifact_hits");
    return it->second;
  }
  obs::count("sweep.artifact_misses");
  auto artifacts = std::make_shared<const ScenarioArtifacts>(builder());
  map_.emplace(key, artifacts);
  return artifacts;
}

}  // namespace sweep
}  // namespace grefar

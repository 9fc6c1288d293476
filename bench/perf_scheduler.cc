// google-benchmark microbenchmarks: per-slot decision latency.
//
// GreFar must decide every scheduling quantum (15 min - 1 h in the paper);
// these benchmarks show the decision is microseconds even for clusters far
// larger than the evaluation's, i.e. the online algorithm is practical.
#include <benchmark/benchmark.h>

#include <memory>

#include "baselines/baselines.h"
#include "core/grefar.h"
#include "lookahead/lookahead.h"
#include "lookahead/mpc.h"
#include "obs/counters.h"
#include "price/price_model.h"
#include "sim/availability.h"
#include "util/rng.h"
#include "workload/arrival_process.h"

namespace grefar {
namespace {

/// Builds a synthetic cluster with `n_dcs` DCs, `n_types` job types and
/// `n_servers` server types, plus a populated random observation.
struct Instance {
  ClusterConfig config;
  SlotObservation obs;
};

Instance make_instance(std::size_t n_dcs, std::size_t n_job_types,
                       std::size_t n_server_types, std::uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  for (std::size_t k = 0; k < n_server_types; ++k) {
    inst.config.server_types.push_back({"srv" + std::to_string(k),
                                        rng.uniform(0.5, 1.5), rng.uniform(0.4, 1.4)});
  }
  for (std::size_t i = 0; i < n_dcs; ++i) {
    DataCenterConfig dc;
    dc.name = "dc" + std::to_string(i);
    for (std::size_t k = 0; k < n_server_types; ++k) {
      dc.installed.push_back(rng.uniform_int(50, 200));
    }
    inst.config.data_centers.push_back(std::move(dc));
  }
  const std::size_t n_accounts = 4;
  for (std::size_t m = 0; m < n_accounts; ++m) {
    inst.config.accounts.push_back({"org" + std::to_string(m), 1.0 / n_accounts});
  }
  for (std::size_t j = 0; j < n_job_types; ++j) {
    JobType jt;
    jt.name = "job" + std::to_string(j);
    jt.work = rng.uniform(0.5, 5.0);
    for (std::size_t i = 0; i < n_dcs; ++i) {
      if (rng.bernoulli(0.7) || jt.eligible_dcs.empty()) jt.eligible_dcs.push_back(i);
    }
    jt.account = j % n_accounts;
    inst.config.job_types.push_back(std::move(jt));
  }
  inst.config.validate();

  inst.obs.slot = 0;
  for (std::size_t i = 0; i < n_dcs; ++i) {
    inst.obs.prices.push_back(rng.uniform(0.2, 0.8));
  }
  inst.obs.availability = Matrix<std::int64_t>(n_dcs, n_server_types);
  for (std::size_t i = 0; i < n_dcs; ++i) {
    for (std::size_t k = 0; k < n_server_types; ++k) {
      inst.obs.availability(i, k) = inst.config.data_centers[i].installed[k];
    }
  }
  inst.obs.central_queue.assign(n_job_types, 0.0);
  for (auto& q : inst.obs.central_queue) q = rng.uniform(0.0, 30.0);
  inst.obs.dc_queue = MatrixD(n_dcs, n_job_types);
  for (std::size_t i = 0; i < n_dcs; ++i) {
    for (std::size_t j = 0; j < n_job_types; ++j) {
      if (inst.config.job_types[j].eligible(i)) {
        inst.obs.dc_queue(i, j) = rng.uniform(0.0, 20.0);
      }
    }
  }
  return inst;
}

GreFarParams bench_params(double beta) {
  GreFarParams p;
  p.V = 7.5;
  p.beta = beta;
  p.r_max = 1e6;
  p.h_max = 1e6;
  return p;
}

/// Returns `scheduler` to its cold state: no warm-start iterate, no cached
/// pieces or demand sorts. The benchmarks repeat one observation, so without
/// this each decide would warm-start from the previous one's answer and the
/// work per iteration would depend on how many iterations ran before it.
void cold_start(GreFarScheduler& scheduler) {
  scheduler.begin_run(scheduler.params());
}

/// Times `decide` from a cold scheduler on every iteration; the reset runs
/// with the timer paused.
template <typename Decide>
void time_cold_decides(benchmark::State& state, GreFarScheduler& scheduler,
                       Decide&& decide) {
  for (auto _ : state) {
    state.PauseTiming();
    cold_start(scheduler);
    state.ResumeTiming();
    decide();
  }
}

/// Reports PGD work per decide as the `pgd_iters` and `pgd_projs` counters.
/// They are counted on a few cold decides after the timed loop, so the
/// registry lookups stay out of the timing and each counted decide does the
/// work of a timed one.
template <typename Decide>
void report_pgd_work(benchmark::State& state, GreFarScheduler& scheduler,
                     Decide&& decide) {
  constexpr int kDecides = 4;
  obs::CounterRegistry counters;
  {
    obs::CountersScope scope(&counters);
    for (int d = 0; d < kDecides; ++d) {
      cold_start(scheduler);
      decide();
    }
  }
  state.counters["pgd_iters"] =
      static_cast<double>(counters.counter("pgd.iterations")) / kDecides;
  state.counters["pgd_projs"] =
      static_cast<double>(counters.counter("pgd.projections")) / kDecides;
}

void BM_GreFarDecideGreedy(benchmark::State& state) {
  auto inst = make_instance(static_cast<std::size_t>(state.range(0)),
                            static_cast<std::size_t>(state.range(1)), 3, 1);
  GreFarScheduler scheduler(inst.config, bench_params(0.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.decide(inst.obs));
  }
}
BENCHMARK(BM_GreFarDecideGreedy)
    ->Args({3, 8})
    ->Args({10, 16})
    ->Args({30, 32})
    ->Args({100, 64})
    ->Args({300, 128});

void BM_GreFarDecideFairnessPgd(benchmark::State& state) {
  auto inst = make_instance(static_cast<std::size_t>(state.range(0)),
                            static_cast<std::size_t>(state.range(1)), 3, 2);
  GreFarScheduler scheduler(inst.config, bench_params(100.0));
  auto decide = [&] { benchmark::DoNotOptimize(scheduler.decide(inst.obs)); };
  time_cold_decides(state, scheduler, decide);
  report_pgd_work(state, scheduler, decide);
}
BENCHMARK(BM_GreFarDecideFairnessPgd)
    ->Args({3, 8})
    ->Args({8, 96})  // the serve-fair workload's shape
    ->Args({10, 16})
    ->Args({30, 32})
    ->Args({100, 64});

/// Million-account instance for the sparse per-slot path (DESIGN.md §12):
/// `n_types` job types, one account per type, queues empty except the first
/// `n_active` types, and the observation carries the active-type hint. With
/// the hint plus clamp_to_queue the scheduler's per-slot problem has only
/// the active columns, so the decide cost must track n_active, not n_types.
Instance make_sparse_instance(std::size_t n_types, std::size_t n_active,
                              std::uint64_t seed) {
  const std::size_t n_dcs = 2;
  const std::size_t n_server_types = 2;
  Rng rng(seed);
  Instance inst;
  for (std::size_t k = 0; k < n_server_types; ++k) {
    inst.config.server_types.push_back({"srv" + std::to_string(k),
                                        rng.uniform(0.5, 1.5), rng.uniform(0.4, 1.4)});
  }
  for (std::size_t i = 0; i < n_dcs; ++i) {
    DataCenterConfig dc;
    dc.name = "dc" + std::to_string(i);
    for (std::size_t k = 0; k < n_server_types; ++k) {
      dc.installed.push_back(rng.uniform_int(200, 400));
    }
    inst.config.data_centers.push_back(std::move(dc));
  }
  inst.config.accounts.assign(n_types, {"", 1.0 / static_cast<double>(n_types)});
  inst.config.job_types.reserve(n_types);
  for (std::size_t j = 0; j < n_types; ++j) {
    JobType jt;  // names left empty: 10^6 distinct strings buy nothing here
    jt.work = 0.5 + 0.5 * static_cast<double>(j % 3);
    jt.eligible_dcs.push_back(j % n_dcs);
    jt.account = j;
    inst.config.job_types.push_back(std::move(jt));
  }
  inst.config.validate();

  inst.obs.slot = 0;
  for (std::size_t i = 0; i < n_dcs; ++i) {
    inst.obs.prices.push_back(rng.uniform(0.2, 0.8));
  }
  inst.obs.availability = Matrix<std::int64_t>(n_dcs, n_server_types);
  for (std::size_t i = 0; i < n_dcs; ++i) {
    for (std::size_t k = 0; k < n_server_types; ++k) {
      inst.obs.availability(i, k) = inst.config.data_centers[i].installed[k];
    }
  }
  inst.obs.central_queue.assign(n_types, 0.0);
  inst.obs.dc_queue = MatrixD(n_dcs, n_types);
  for (std::size_t j = 0; j < n_active; ++j) {
    inst.obs.central_queue[j] = static_cast<double>(rng.uniform_int(1, 6));
    inst.obs.dc_queue(j % n_dcs, j) = rng.uniform(0.0, 3.0);
    inst.obs.active_types.push_back(static_cast<std::uint32_t>(j));
  }
  inst.obs.active_types_valid = true;
  return inst;
}

void BM_GreFarDecidePgdAccounts(benchmark::State& state) {
  // args = {M, active}. decide_into (not decide): the sparse clearing of the
  // output matrices relies on buffer identity across slots, exactly how the
  // engine drives the scheduler.
  auto inst = make_sparse_instance(static_cast<std::size_t>(state.range(0)),
                                   static_cast<std::size_t>(state.range(1)), 21);
  GreFarParams p = bench_params(100.0);
  p.clamp_to_queue = true;  // required for the sparse per-slot regime
  GreFarScheduler scheduler(inst.config, p);
  SlotAction action;
  auto decide = [&] {
    scheduler.decide_into(inst.obs, action);
    benchmark::DoNotOptimize(action.process(0, 0));
  };
  time_cold_decides(state, scheduler, decide);
  report_pgd_work(state, scheduler, decide);
}
// {1000, 1000} is the dense reference slot (every account active at M =
// 10^3); the acceptance bar is the 10^6-account slot with ~10^3 active
// staying within 3x of it.
BENCHMARK(BM_GreFarDecidePgdAccounts)
    ->Args({1000, 1000})
    ->Args({100000, 1000})
    ->Args({1000000, 1000});

void BM_LookaheadFrame(benchmark::State& state) {
  // One T-slot frame LP, built and solved from scratch (the unit of work
  // the parallel frame fan-out distributes).
  ClusterConfig c;
  c.server_types = {{"fast", 1.0, 1.0}, {"eff", 0.5, 0.4}};
  for (int i = 0; i < 4; ++i) {
    c.data_centers.push_back({"dc" + std::to_string(i), {30, 20}});
  }
  c.accounts = {{"a", 0.5}, {"b", 0.5}};
  c.job_types = {{"j0", 1.0, {0, 1, 2, 3}, 0},
                 {"j1", 2.0, {0, 1, 2, 3}, 1},
                 {"j2", 1.5, {0, 1, 2, 3}, 0},
                 {"j3", 0.5, {0, 1, 2, 3}, 1}};
  Rng rng(6);
  std::vector<std::vector<double>> price_rows(4);
  for (auto& row : price_rows) {
    for (int t = 0; t < 24; ++t) row.push_back(rng.uniform(0.2, 0.9));
  }
  TablePriceModel prices(price_rows);
  FullAvailability avail(c.data_centers);
  ConstantArrivals arrivals({2, 1, 2, 1});
  LookaheadParams p;
  p.T = state.range(0);
  p.R = 1;
  p.r_max = 1e6;
  p.h_max = 1e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_lookahead(c, prices, avail, arrivals, p));
  }
}
BENCHMARK(BM_LookaheadFrame)->Arg(8)->Arg(24);

void BM_MpcStep(benchmark::State& state) {
  // Steady-state MPC slot: same window structure each call, warm-started
  // from the previous optimal basis (the cold first solve is untimed).
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc0", {12}}, {"dc1", {12}}};
  c.accounts = {{"a", 0.5}, {"b", 0.5}};
  c.job_types = {{"ja", 1.0, {0, 1}, 0}, {"jb", 2.0, {0, 1}, 1}};
  auto prices = std::make_shared<TablePriceModel>(std::vector<std::vector<double>>{
      {0.9, 0.8, 0.7, 0.3, 0.2, 0.3, 0.8, 0.9},
      {0.7, 0.7, 0.5, 0.4, 0.3, 0.4, 0.6, 0.7}});
  auto avail = std::make_shared<FullAvailability>(c.data_centers);
  auto arr = std::make_shared<ConstantArrivals>(std::vector<std::int64_t>{3, 2});
  MpcParams p;
  p.window = state.range(0);
  p.r_max = 50.0;
  p.h_max = 50.0;
  MpcScheduler scheduler(c, prices, avail, arr, p);

  SlotObservation obs;
  obs.slot = 0;
  obs.prices = {0.9, 0.7};
  obs.availability = Matrix<std::int64_t>(2, 1);
  obs.availability(0, 0) = 12;
  obs.availability(1, 0) = 12;
  obs.central_queue = {4.0, 2.0};
  obs.dc_queue = MatrixD(2, 2);
  obs.dc_queue(0, 0) = 2.0;
  obs.dc_queue(1, 1) = 1.0;
  scheduler.decide(obs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.decide(obs));
  }
}
BENCHMARK(BM_MpcStep)->Arg(8);

void BM_AlwaysDecide(benchmark::State& state) {
  auto inst = make_instance(static_cast<std::size_t>(state.range(0)),
                            static_cast<std::size_t>(state.range(1)), 3, 5);
  AlwaysScheduler scheduler(inst.config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.decide(inst.obs));
  }
}
BENCHMARK(BM_AlwaysDecide)->Args({3, 8})->Args({30, 32});

}  // namespace
}  // namespace grefar

#include "common/benchmark_main.h"

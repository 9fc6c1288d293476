// Large-instance crosschecks.
//
// The per-slot hot path (SoA reset, cached greedy merge) was rewritten for
// instances far larger than the paper's 3x8 evaluation; these tests pin its
// correctness at 100 DCs x 64 job types: the incremental greedy still
// matches the simplex LP oracle's optimum exactly (beta = 0), and the SPG
// and Frank-Wolfe oracles land within solver tolerance of it.
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "check/per_slot_oracles.h"
#include "core/per_slot_solvers.h"
#include "support/fixtures.h"
#include "util/rng.h"

namespace grefar {
namespace {

/// Synthetic cluster + populated observation, same shape as the perf
/// benchmarks use (bench/perf_scheduler.cc) so the crosschecks exercise the
/// exact instances whose latency the acceptance criteria track.
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

GreFarParams large_params(double beta) {
  GreFarParams p;
  p.V = 7.5;
  p.beta = beta;
  p.r_max = 100.0;
  p.h_max = 100.0;
  return p;
}

// -- Solver crosschecks at 100 x 64 -----------------------------------------

TEST(LargeInstance, GreedyMatchesLpAtBetaZero) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    auto inst = make_instance(100, 64, 3, seed);
    PerSlotProblem problem = observed_problem(inst.config, inst.obs, large_params(0.0));
    auto greedy = solve_per_slot_greedy(problem);
    auto lp = solve_per_slot_lp(problem);
    const double scale = 1.0 + std::abs(problem.value(lp));
    EXPECT_NEAR(problem.value(greedy), problem.value(lp), 1e-6 * scale)
        << "seed=" << seed;
  }
}

TEST(LargeInstance, PgdWithinToleranceOfLpAtBetaZero) {
  auto inst = make_instance(100, 64, 3, 21);
  PerSlotProblem problem = observed_problem(inst.config, inst.obs, large_params(0.0));
  const double lp_value = problem.value(solve_per_slot_lp(problem));
  const double pgd_value = problem.value(solve_per_slot_pgd(problem));
  const double scale = 1.0 + std::abs(lp_value);
  // value() evaluates the *smoothed* energy curve while the LP optimizes the
  // exact piecewise-linear one, so the two optima can differ slightly in
  // either direction (within the smoothing band); the check is symmetric.
  EXPECT_NEAR(pgd_value, lp_value, 2e-2 * scale);
}

TEST(LargeInstance, FrankWolfeWithinToleranceOfLpAtBetaZero) {
  auto inst = make_instance(100, 64, 3, 22);
  PerSlotProblem problem = observed_problem(inst.config, inst.obs, large_params(0.0));
  const double lp_value = problem.value(solve_per_slot_lp(problem));
  const double fw_value = problem.value(solve_per_slot_frank_wolfe(problem));
  const double scale = 1.0 + std::abs(lp_value);
  EXPECT_NEAR(fw_value, lp_value, 2e-2 * scale);
}

}  // namespace
}  // namespace grefar

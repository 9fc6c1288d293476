#include "core/per_slot_solvers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "check/pgd_oracle.h"
#include "core/grefar.h"
#include "obs/counters.h"
#include "parallel/shard.h"
#include "scenario/paper_scenario.h"
#include "scenario/serve_scenario.h"
#include "sim/engine.h"
#include "sim/fairness.h"
#include "solver/brute_force.h"
#include "util/rng.h"

namespace grefar {
namespace {

ClusterConfig test_config() {
  ClusterConfig c;
  c.server_types = {{"fast", 1.0, 1.0}, {"eff", 0.5, 0.3}};
  c.data_centers = {{"dc1", {4, 4}}, {"dc2", {2, 8}}};
  c.accounts = {{"a", 0.6}, {"b", 0.4}};
  c.job_types = {{"j0", 1.0, {0, 1}, 0}, {"j1", 2.0, {0}, 1}};
  return c;
}

SlotObservation random_obs(const ClusterConfig& c, Rng& rng) {
  SlotObservation obs;
  obs.slot = 0;
  obs.prices.clear();
  for (std::size_t i = 0; i < c.num_data_centers(); ++i) {
    obs.prices.push_back(rng.uniform(0.2, 0.8));
  }
  obs.availability = Matrix<std::int64_t>(c.num_data_centers(), c.num_server_types());
  for (std::size_t i = 0; i < c.num_data_centers(); ++i) {
    for (std::size_t k = 0; k < c.num_server_types(); ++k) {
      obs.availability(i, k) = rng.uniform_int(0, c.data_centers[i].installed[k]);
    }
  }
  obs.central_queue.assign(c.num_job_types(), 0.0);
  obs.dc_queue = MatrixD(c.num_data_centers(), c.num_job_types());
  for (std::size_t i = 0; i < c.num_data_centers(); ++i) {
    for (std::size_t j = 0; j < c.num_job_types(); ++j) {
      if (c.job_types[j].eligible(i)) obs.dc_queue(i, j) = rng.uniform(0.0, 5.0);
    }
  }
  return obs;
}

GreFarParams params(double V, double beta) {
  GreFarParams p;
  p.V = V;
  p.beta = beta;
  p.h_max = 100.0;
  p.r_max = 100.0;
  return p;
}

TEST(GreedySolver, EmptyQueuesProcessNothing) {
  auto config = test_config();
  Rng rng(1);
  auto obs = random_obs(config, rng);
  obs.dc_queue.fill(0.0);
  PerSlotProblem problem(config, obs, params(1.0, 0.0));
  auto u = solve_per_slot_greedy(problem);
  for (double v : u) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(GreedySolver, HighVSuppressesProcessing) {
  // With V huge, V*phi*c exceeds any queue value: process nothing.
  auto config = test_config();
  Rng rng(2);
  auto obs = random_obs(config, rng);
  PerSlotProblem problem(config, obs, params(1e9, 0.0));
  auto u = solve_per_slot_greedy(problem);
  for (double v : u) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(GreedySolver, ZeroVProcessesEverythingQueued) {
  // With V = 0 energy is free: serve every queued job up to capacity.
  auto config = test_config();
  config.data_centers = {{"dc1", {100, 0}}, {"dc2", {100, 0}}};  // huge capacity
  Rng rng(3);
  auto obs = random_obs(config, rng);
  obs.availability.fill(100);
  PerSlotProblem problem(config, obs, params(0.0, 0.0));
  auto u = solve_per_slot_greedy(problem);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      if (!config.job_types[j].eligible(i)) continue;
      double queued_work = obs.dc_queue(i, j) * config.job_types[j].work;
      if (obs.dc_queue(i, j) > 0.0) {
        EXPECT_NEAR(u[problem.index(i, j)], queued_work, 1e-9);
      }
    }
  }
}

TEST(GreedySolver, ThresholdBehaviourOnSingleQueue) {
  // One DC, one server type: process iff q/d > V * phi * p/s.
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc", {10}}};
  c.accounts = {{"a", 1.0}};
  c.job_types = {{"j", 1.0, {0}, 0}};
  SlotObservation obs;
  obs.slot = 0;
  obs.prices = {0.5};
  obs.availability = Matrix<std::int64_t>(1, 1);
  obs.availability(0, 0) = 10;
  obs.central_queue = {0.0};
  obs.dc_queue = MatrixD(1, 1);

  // Threshold: q > V * 0.5. With V = 4 -> threshold 2.
  obs.dc_queue(0, 0) = 1.9;
  PerSlotProblem below(c, obs, params(4.0, 0.0));
  EXPECT_DOUBLE_EQ(solve_per_slot_greedy(below)[0], 0.0);

  obs.dc_queue(0, 0) = 2.1;
  PerSlotProblem above(c, obs, params(4.0, 0.0));
  EXPECT_NEAR(solve_per_slot_greedy(above)[0], 2.1, 1e-9);
}

TEST(GreedySolver, RespectsCapacity) {
  auto config = test_config();
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    auto obs = random_obs(config, rng);
    PerSlotProblem problem(config, obs, params(0.1, 0.0));
    auto u = solve_per_slot_greedy(problem);
    EXPECT_TRUE(problem.polytope().contains(u, 1e-9)) << "trial " << trial;
  }
}

TEST(GreedyVsLp, ObjectivesAgreeOnRandomInstances) {
  auto config = test_config();
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    auto obs = random_obs(config, rng);
    double V = rng.uniform(0.0, 10.0);
    PerSlotProblem problem(config, obs, params(V, 0.0));
    auto greedy = solve_per_slot_greedy(problem);
    auto lp = solve_per_slot_lp(problem);
    EXPECT_NEAR(problem.value(greedy), problem.value(lp), 1e-6)
        << "trial " << trial << " V=" << V;
  }
}

TEST(GreedyVsFrankWolfe, AgreeWhenBetaZero) {
  auto config = test_config();
  Rng rng(6);
  for (int trial = 0; trial < 15; ++trial) {
    auto obs = random_obs(config, rng);
    PerSlotProblem problem(config, obs, params(rng.uniform(0.5, 5.0), 0.0));
    auto greedy = solve_per_slot_greedy(problem);
    auto fw = solve_per_slot_frank_wolfe(problem);
    // Greedy is exact for the *kinked* objective; FW minimizes the smoothed
    // one and zigzags near faces — allow the combined slack.
    double scale = std::max(1.0, std::abs(problem.value(greedy)));
    EXPECT_NEAR(problem.value(greedy), problem.value(fw), 5e-3 * scale)
        << "trial " << trial;
  }
}

TEST(FrankWolfeVsPgd, AgreeWithFairness) {
  auto config = test_config();
  Rng rng(7);
  for (int trial = 0; trial < 15; ++trial) {
    auto obs = random_obs(config, rng);
    double beta = rng.uniform(1.0, 100.0);
    PerSlotProblem problem(config, obs, params(rng.uniform(0.5, 5.0), beta));
    auto fw = solve_per_slot_frank_wolfe(problem);
    auto pgd = solve_per_slot_pgd(problem);
    double scale = std::max(1.0, std::abs(problem.value(fw)));
    EXPECT_NEAR(problem.value(fw), problem.value(pgd), 2e-2 * scale)
        << "trial " << trial;
    // PGD is the production solver for beta > 0: it must never be much
    // worse than FW.
    EXPECT_LE(problem.value(pgd), problem.value(fw) + 2e-3 * scale)
        << "trial " << trial;
  }
}

TEST(PgdSolveCost, ServeScenarioStaysCheap) {
  // The served-slot fairness workload: 8 DCs x 96 types, V = 4, beta = 0.5,
  // PGD decide. With a bisection projection too coarse for the line search,
  // solves here fell into a subgradient fallback (1174 steps) and averaged
  // ~155 projections. With the exact projection monotone PGD averaged ~21;
  // spectral projected gradient averages ~4.3.
  PaperScenario s = make_serve_scenario(8, 96, /*seed=*/1);
  auto scheduler = std::make_shared<GreFarScheduler>(
      s.config, paper_grefar_params(4.0, 0.5), PerSlotSolver::kProjectedGradient);
  SimulationEngine engine(s.config, s.prices, s.availability, s.arrivals, scheduler);
  obs::CounterRegistry counters;
  {
    obs::CountersScope scope(&counters);
    engine.run(300);
  }
  const std::uint64_t solves = counters.counter("pgd.solves");
  ASSERT_GT(solves, 0u);
  const double projections_per_solve =
      static_cast<double>(counters.counter("pgd.projections")) /
      static_cast<double>(solves);
  EXPECT_LE(projections_per_solve, 8.0);
  EXPECT_EQ(counters.counter("pgd.subgradient_fallback_steps"), 0u);
}

TEST(FairnessSolvers, MatchBruteForceOnTinyInstance) {
  // 1 DC, 2 job types (one per account): 2 variables, exhaustive check.
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc", {6}}};
  c.accounts = {{"a", 0.5}, {"b", 0.5}};
  c.job_types = {{"ja", 1.0, {0}, 0}, {"jb", 1.0, {0}, 1}};
  SlotObservation obs;
  obs.slot = 0;
  obs.prices = {0.5};
  obs.availability = Matrix<std::int64_t>(1, 1);
  obs.availability(0, 0) = 6;
  obs.central_queue = {0.0, 0.0};
  obs.dc_queue = MatrixD(1, 2);
  obs.dc_queue(0, 0) = 4.0;
  obs.dc_queue(0, 1) = 1.0;

  PerSlotProblem problem(c, obs, params(2.0, 30.0));
  auto fw = solve_per_slot_frank_wolfe(problem);
  auto brute = minimize_brute_force(
      [&](const std::vector<double>& x) { return problem.value(x); },
      problem.polytope(), 41);
  EXPECT_LE(problem.value(fw), brute.objective + 1e-3);
}

TEST(FairnessSolvers, BetaPullsAllocationTowardGamma) {
  // KKT-verifiable instance: capacity 10, equal queues (value 8 per work),
  // gamma = (0.3, 0.7), V = 1, phi = 1, beta = 100. Stationarity on the
  // binding cap gives u* = (3, 7) exactly (equal marginals -7).
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc", {10}}};
  c.accounts = {{"a", 0.3}, {"b", 0.7}};
  c.job_types = {{"ja", 1.0, {0}, 0}, {"jb", 1.0, {0}, 1}};
  SlotObservation obs;
  obs.slot = 0;
  obs.prices = {1.0};
  obs.availability = Matrix<std::int64_t>(1, 1);
  obs.availability(0, 0) = 10;
  obs.central_queue = {0.0, 0.0};
  obs.dc_queue = MatrixD(1, 2);
  obs.dc_queue(0, 0) = 8.0;
  obs.dc_queue(0, 1) = 8.0;

  GreFarParams p = params(1.0, 100.0);
  PerSlotProblem fair(c, obs, p);
  for (auto solver :
       {PerSlotSolver::kFrankWolfe, PerSlotSolver::kProjectedGradient}) {
    auto u = solve_per_slot(fair, solver);
    EXPECT_NEAR(u[0], 3.0, 0.3) << to_string(solver);
    EXPECT_NEAR(u[1], 7.0, 0.3) << to_string(solver);
  }
}

TEST(PerSlotDispatch, AllSolversRun) {
  auto config = test_config();
  Rng rng(8);
  auto obs = random_obs(config, rng);
  PerSlotProblem problem(config, obs, params(1.0, 0.0));
  for (auto solver : {PerSlotSolver::kGreedy, PerSlotSolver::kFrankWolfe,
                      PerSlotSolver::kProjectedGradient, PerSlotSolver::kLp}) {
    auto u = solve_per_slot(problem, solver);
    EXPECT_EQ(u.size(), problem.num_vars());
    EXPECT_TRUE(problem.polytope().contains(u, 1e-6)) << to_string(solver);
  }
}

TEST(CrossSlotWarmStart, OffReproducesTheColdTrajectory) {
  // With warm_start_across_slots off, a scratch-carrying solve must be
  // bitwise identical to the historical scratch-free cold solve, slot by
  // slot — the A/B lever has to be a true control.
  auto config = test_config();
  Rng rng(21);
  GreFarParams p = params(2.0, 50.0);
  p.warm_start_across_slots = false;

  std::vector<SlotObservation> slots;
  for (int t = 0; t < 5; ++t) slots.push_back(random_obs(config, rng));
  PerSlotProblem problem(config, slots[0], p);
  PerSlotSolverScratch scratch;
  std::vector<double> u;
  for (const auto& obs : slots) {
    problem.reset(obs);
    solve_per_slot_into(problem, PerSlotSolver::kFrankWolfe, u, &scratch);
    auto cold = solve_per_slot_frank_wolfe(problem);
    ASSERT_EQ(u.size(), cold.size());
    for (std::size_t v = 0; v < u.size(); ++v) EXPECT_EQ(u[v], cold[v]);
  }
}

TEST(CrossSlotWarmStart, OnMatchesTheColdObjective) {
  // Warm-started slots may stop at a (very slightly) different point, but
  // the objective must match the cold solve to solver tolerance for both
  // iterative solvers, across a drifting observation sequence.
  auto config = test_config();
  Rng rng(22);
  GreFarParams p = params(2.0, 50.0);
  ASSERT_TRUE(p.warm_start_across_slots);  // on by default

  std::vector<SlotObservation> slots;
  for (int t = 0; t < 6; ++t) slots.push_back(random_obs(config, rng));
  for (auto solver :
       {PerSlotSolver::kFrankWolfe, PerSlotSolver::kProjectedGradient}) {
    PerSlotProblem problem(config, slots[0], p);
    PerSlotSolverScratch scratch;
    std::vector<double> u;
    for (std::size_t t = 0; t < slots.size(); ++t) {
      problem.reset(slots[t]);
      solve_per_slot_into(problem, solver, u, &scratch);
      EXPECT_TRUE(problem.polytope().contains(u, 1e-6))
          << to_string(solver) << " slot " << t;
      auto cold = solve_per_slot(problem, solver);
      // Either start can stall marginally earlier; in practice the warm one
      // often lands *lower*. Allow the solvers' own accuracy band.
      double scale = std::max(1.0, std::abs(problem.value(cold)));
      EXPECT_NEAR(problem.value(u), problem.value(cold), 5e-3 * scale)
          << to_string(solver) << " slot " << t;
    }
  }
}

TEST(GreedySolver, IdleCompactSlotServesNoStaleDemands) {
  // A busy compact slot primes the per-DC demand caches; the following
  // zero-active-type slot must produce the empty action. Regression: with
  // J == 0 the (qv, ub) cache key rows are empty and compare equal to a
  // *cleared* key (size 0 == J), so the fill served the previous busy
  // slot's demand list and wrote through the zero-variable u — a crash
  // whenever the caller's vector had no retained capacity (fresh engine or
  // a buffer std::move'd away by an iterative solver).
  auto config = test_config();
  Rng rng(31);
  GreFarParams p = params(0.0, 0.0);  // V = 0: route everything queued
  p.clamp_to_queue = true;            // compact resets need the clamp

  SlotObservation busy = random_obs(config, rng);
  busy.active_types_valid = true;
  busy.active_types = {0, 1};
  PerSlotProblem problem(config, busy, p);
  problem.set_sparse_enabled(true);
  problem.reset(busy);
  ASSERT_TRUE(problem.compact());

  PerSlotSolverScratch scratch;
  std::vector<double> primed;
  solve_per_slot_greedy_into(problem, primed, &scratch);
  double routed = 0.0;
  for (double v : primed) routed += v;
  ASSERT_GT(routed, 0.0);  // the demand caches now hold nonempty lists

  SlotObservation idle = busy;
  idle.dc_queue.fill(0.0);
  idle.central_queue.assign(config.num_job_types(), 0.0);
  idle.active_types.clear();
  problem.reset(idle);
  ASSERT_TRUE(problem.compact());
  ASSERT_EQ(problem.num_vars(), 0u);

  std::vector<double> u;  // no capacity — the crashing shape
  solve_per_slot_greedy_into(problem, u, &scratch);
  EXPECT_TRUE(u.empty());

  // The idle slot must not have poisoned the caches for the next busy one.
  problem.reset(busy);
  std::vector<double> again;
  solve_per_slot_greedy_into(problem, again, &scratch);
  ASSERT_EQ(again.size(), primed.size());
  for (std::size_t k = 0; k < again.size(); ++k) EXPECT_EQ(again[k], primed[k]);
}

TEST(PerSlotSolverNames, AreStable) {
  EXPECT_EQ(to_string(PerSlotSolver::kGreedy), "greedy");
  EXPECT_EQ(to_string(PerSlotSolver::kFrankWolfe), "frank-wolfe");
  EXPECT_EQ(to_string(PerSlotSolver::kProjectedGradient), "pgd");
  EXPECT_EQ(to_string(PerSlotSolver::kLp), "lp");
}

// -- Bitwise oracles for the fused objective and the PGD loop --------------
//
// PGD evaluates every line-search candidate with one value_and_gradient()
// row pass (R rows reduced side by side), pretests the move norm with a max,
// and projects runs of groups with one interleaved sum. None of that may
// move a bit. The oracles below are the single-row code it replaced: the
// objective reduced one row at a time, value and gradient as separate
// passes, the serial move norm, and a projection one group at a time. They
// read the problem only through its public accessors, so a change to the
// production kernels cannot leak into them.

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Index of the first entry whose bits differ, or a.size() when none do.
std::size_t first_bit_mismatch(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (!same_bits(a[k], b[k])) return k;
  }
  return a.size();
}

/// The per-slot objective, each data center's row reduced serially on its
/// own and the fairness accumulators kept over all M accounts.
class SerialReferenceObjective final : public ConvexObjective {
 public:
  explicit SerialReferenceObjective(const PerSlotProblem& problem)
      : p_(problem), fairness_(problem.config().gammas()) {}

  double value(const std::vector<double>& x) const override {
    reduce(x);
    double total = 0.0;
    for (double v : dc_value_) total += v;
    if (fair()) {
      const GreFarParams& par = p_.params();
      total -= par.V * par.beta * fairness_.score(account_work_, p_.total_resource());
    }
    return total;
  }

  void gradient(const std::vector<double>& x, std::vector<double>& out) const override {
    reduce(x);
    const PerSlotView v = p_.view();
    const std::size_t N = v.num_dcs;
    const std::size_t J = v.num_types;
    std::vector<double> type_term(J, 0.0);
    if (fair()) {
      const double inv = fairness_.inv_total(p_.total_resource());
      const double vb = p_.params().V * p_.params().beta;
      for (std::size_t j = 0; j < J; ++j) {
        bool live = false;
        for (std::size_t i = 0; i < N; ++i) live = live || v.upper_bounds[i * J + j] > 0.0;
        const std::uint32_t m = v.account_of[j];
        type_term[j] = live ? vb * fairness_kernel::gradient(account_work_[m],
                                                             fairness_.gamma()[m], inv)
                            : 0.0;
      }
    }
    out.assign(N * J, 0.0);
    for (std::size_t i = 0; i < N; ++i) {
      for (std::size_t j = 0; j < J; ++j) {
        const double qv = v.queue_value[i * J + j];
        out[i * J + j] = fair() ? marginal_[i] - qv - type_term[j] : marginal_[i] - qv;
      }
    }
  }

 private:
  bool fair() const { return p_.params().beta > 0.0 && p_.total_resource() > 0.0; }

  void reduce(const std::vector<double>& x) const {
    const PerSlotView v = p_.view();
    const std::size_t N = v.num_dcs;
    const std::size_t J = v.num_types;
    ASSERT_EQ(x.size(), N * J);
    dc_value_.assign(N, 0.0);
    marginal_.assign(N, 0.0);
    account_work_.assign(v.num_accounts, 0.0);
    std::vector<double> partial(v.num_accounts);
    for (std::size_t i = 0; i < N; ++i) {
      std::fill(partial.begin(), partial.end(), 0.0);
      double dc_work = 0.0;
      double queue_dot = 0.0;
      for (std::size_t j = 0; j < J; ++j) {
        const double u = x[i * J + j];
        dc_work += u;
        queue_dot += v.queue_value[i * J + j] * u;
        partial[v.account_of[j]] += u;
      }
      for (std::size_t m = 0; m < partial.size(); ++m) account_work_[m] += partial[m];
      const EnergyCostCurve& curve = p_.curve(i);
      const double cap = curve.capacity();
      const double band = 1e-3 * cap;
      const double energy_band = 1e-3 * curve.energy_for_work(cap);
      const double energy = curve.smoothed_energy(dc_work, band);
      const double v_phi = p_.params().V * v.prices[i];
      const TieredTariff& tariff = p_.config().tariff(i);
      dc_value_[i] = v_phi * tariff.smoothed_cost(energy, energy_band) - queue_dot;
      marginal_[i] = v_phi * tariff.smoothed_marginal(energy, energy_band) *
                     curve.smoothed_marginal(dc_work, band);
    }
  }

  const PerSlotProblem& p_;
  FairnessFunction fairness_;
  mutable std::vector<double> dc_value_;
  mutable std::vector<double> marginal_;
  mutable std::vector<double> account_work_;
};

ClusterConfig random_cluster(Rng& rng, std::size_t num_dcs, std::size_t num_types,
                             std::size_t num_accounts) {
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}, {"eco", 0.75, 0.6}};
  for (std::size_t i = 0; i < num_dcs; ++i) {
    c.data_centers.push_back({"dc" + std::to_string(i), {12, 8}});
  }
  for (std::size_t m = 0; m < num_accounts; ++m) {
    c.accounts.push_back({"a" + std::to_string(m), 1.0 / static_cast<double>(num_accounts)});
  }
  for (std::size_t j = 0; j < num_types; ++j) {
    JobType jt;
    jt.name = "t" + std::to_string(j);
    jt.work = rng.uniform(0.5, 2.0);
    for (std::size_t i = 0; i < num_dcs; ++i) {
      if (rng.bernoulli(0.7)) jt.eligible_dcs.push_back(i);
    }
    if (jt.eligible_dcs.empty()) jt.eligible_dcs.push_back(j % num_dcs);
    jt.account = static_cast<AccountId>(
        rng.uniform_int(0, static_cast<std::int64_t>(num_accounts) - 1));
    c.job_types.push_back(std::move(jt));
  }
  c.validate();
  return c;
}

/// Random queues carrying the active-type hint (a type off the list is
/// empty everywhere); `idle` zeroes every server.
SlotObservation random_hinted_obs(Rng& rng, const ClusterConfig& c, bool idle) {
  const std::size_t N = c.num_data_centers();
  const std::size_t J = c.num_job_types();
  SlotObservation obs;
  obs.slot = 0;
  obs.prices.resize(N);
  for (auto& p : obs.prices) p = rng.uniform(0.2, 0.8);
  obs.availability = Matrix<std::int64_t>(N, c.num_server_types());
  for (std::size_t i = 0; i < N; ++i) {
    obs.availability(i, 0) = idle ? 0 : rng.uniform_int(2, 12);
    obs.availability(i, 1) = idle ? 0 : rng.uniform_int(0, 8);
  }
  obs.central_queue.assign(J, 0.0);
  obs.dc_queue = MatrixD(N, J);
  obs.dc_queue.fill(0.0);
  for (std::size_t j = 0; j < J; ++j) {
    if (rng.bernoulli(0.3)) continue;
    obs.active_types.push_back(static_cast<std::uint32_t>(j));
    for (std::size_t i = 0; i < N; ++i) {
      if (c.job_types[j].eligible(i) && rng.bernoulli(0.8)) {
        obs.dc_queue(i, j) = rng.uniform(0.0, 6.0);
      }
    }
  }
  obs.active_types_valid = true;
  return obs;
}

TEST(FusedObjective, MatchesSeparateCallsAndSerialReferenceBitwise) {
  // value_and_gradient(x, g) == value(x) and gradient(x, g), bit for bit,
  // and both equal the single-row reference: dense and compact problems,
  // beta 0 and > 0, zero total resource, N = 1..9 DCs (every row-block
  // tail), and 1 / 4 / 8 intra-slot shards engaged at any size.
  Rng rng(0xF05ED);
  IntraSlotExecutor exec4(4);
  IntraSlotExecutor exec8(8);
  int evaluations = 0;
  for (std::size_t N = 1; N <= 9; ++N) {
    const ClusterConfig config = random_cluster(rng, N, 13, 5);
    for (int variant = 0; variant < 24; ++variant) {
      const bool compact = (variant & 1) != 0;
      const double beta = (variant & 2) != 0 ? 0.7 : 0.0;
      const bool idle = (variant & 4) != 0;
      const std::size_t jobs = variant / 8 == 0 ? 1 : variant / 8 == 1 ? 4 : 8;
      SCOPED_TRACE("N=" + std::to_string(N) + " compact=" + std::to_string(compact) +
                   " beta=" + std::to_string(beta) + " idle=" + std::to_string(idle) +
                   " jobs=" + std::to_string(jobs));
      GreFarParams par;
      par.V = 2.0;
      par.beta = beta;
      par.intra_slot_jobs = jobs;
      par.intra_slot_min_vars = 1;
      const SlotObservation obs = random_hinted_obs(rng, config, idle);
      PerSlotProblem problem(config, par);
      if (jobs == 4) problem.set_intra_slot_executor(&exec4);
      if (jobs == 8) problem.set_intra_slot_executor(&exec8);
      problem.set_sparse_enabled(compact);
      problem.reset(obs);
      ASSERT_EQ(problem.compact(), compact);
      ASSERT_EQ(problem.total_resource() == 0.0, idle);
      ASSERT_EQ(problem.intra_slot_executor() != nullptr,
                jobs > 1 && problem.num_vars() > 0);
      const SerialReferenceObjective reference(problem);
      const std::vector<double>& ub = problem.polytope().upper_bounds();
      for (int point = 0; point < 6; ++point) {
        std::vector<double> x(problem.num_vars());
        for (std::size_t k = 0; k < x.size(); ++k) {
          x[k] = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 1.3) * ub[k];
        }
        // Even points are feasible; odd ones leave the box (the objective is
        // defined there too, and the sums see more varied operands).
        if (point % 2 == 0) x = problem.polytope().project(x);
        std::vector<double> g_fused(3, -1.0);  // wrong size: must be resized
        std::vector<double> g_alone;
        std::vector<double> g_ref;
        const double v_fused = problem.value_and_gradient(x, g_fused);
        const double v_alone = problem.value(x);
        problem.gradient(x, g_alone);
        const double v_ref = reference.value(x);
        reference.gradient(x, g_ref);
        EXPECT_TRUE(same_bits(v_fused, v_alone)) << v_fused << " vs " << v_alone;
        EXPECT_TRUE(same_bits(v_fused, v_ref)) << v_fused << " vs " << v_ref;
        EXPECT_EQ(first_bit_mismatch(g_fused, g_alone), g_fused.size());
        EXPECT_EQ(first_bit_mismatch(g_fused, g_ref), g_fused.size());
        ++evaluations;
      }
    }
  }
  EXPECT_EQ(evaluations, 9 * 24 * 6);
}

/// The accuracy contract (DESIGN.md §11). Every slot of the run is checked:
/// the engine's per-slot problem is solved by production and by the
/// monotone-PGD oracle run to its own stop, both from the same warm start.
///   * The oracle converged, and its Frank-Wolfe gap certifies f(x_ref) to
///     within 1e-6 * (1 + |f(x_ref)|) of the minimum.
///   * A production solve that stopped on its own test is within
///     1e-6 * (1 + |f(x_ref)|) of the oracle, above or below.
///   * A production solve that stopped on the residual test alone (the
///     predicted-decrease test did not fire) has a unit-step residual
///     ||P(x - g) - x||_inf <= 1e-8, the default tolerance, at the returned
///     x. At the default tolerance both tests fire together on these runs;
///     a looser tolerance stops solves on the residual test alone, earlier.
/// Solves that reached the iteration cap are returned for the caller to
/// count; the contract is not promised for them.
std::vector<PgdAccuracySample> expect_accuracy_contract(const PaperScenario& s,
                                                        const GreFarParams& params,
                                                        bool compact,
                                                        std::int64_t slots = 300) {
  constexpr double kContract = 1e-6;
  constexpr double kResidualTolerance = 1e-8;
  auto probe = std::make_shared<PgdAccuracyProbe>(s.config, params, compact);
  SimulationEngine engine(s.config, s.prices, s.availability, s.arrivals, probe);
  engine.run(slots);
  const std::vector<PgdAccuracySample>& samples = probe->samples();
  EXPECT_EQ(samples.size(), static_cast<std::size_t>(slots));
  double worst_excess = 0.0;
  double worst_certificate = 0.0;
  double worst_residual = 0.0;
  double oracle_iterations = 0.0;
  std::size_t compact_slots = 0;
  std::size_t residual_stops = 0;
  for (const PgdAccuracySample& sample : samples) {
    const double scale = 1.0 + std::abs(sample.reference);
    EXPECT_TRUE(sample.reference_converged) << "slot " << sample.slot;
    EXPECT_LE(sample.reference_fw_gap, kContract * scale) << "slot " << sample.slot;
    EXPECT_NE(sample.stop, PgdStop::kLineSearch) << "slot " << sample.slot;
    if (sample.stop != PgdStop::kIterationCap) {
      EXPECT_TRUE(sample.within_contract(kContract))
          << "slot " << sample.slot << ": f(x) = " << sample.value
          << ", f(x_ref) = " << sample.reference
          << ", oracle Frank-Wolfe gap " << sample.reference_fw_gap;
      worst_excess = std::max(worst_excess, std::abs(sample.excess()) / scale);
      worst_residual = std::max(worst_residual, sample.residual);
    }
    if (sample.stop == PgdStop::kResidual) {
      EXPECT_LE(sample.residual, kResidualTolerance) << "slot " << sample.slot;
      ++residual_stops;
    }
    worst_certificate = std::max(worst_certificate, sample.reference_fw_gap / scale);
    oracle_iterations += sample.reference_iterations;
    if (sample.compact) ++compact_slots;
  }
  EXPECT_EQ(compact_slots, compact ? samples.size() : 0u);
  // The checked problems must not be trivial: the oracle takes several
  // steps per solve from the warm start on average.
  EXPECT_GT(oracle_iterations / static_cast<double>(samples.size()), 3.0);
  std::printf("  %zu slots: max |f - f_ref| / (1 + |f_ref|) %.3g, max oracle "
              "Frank-Wolfe gap / (1 + |f_ref|) %.3g, %zu residual-only stops, "
              "max unit-step residual %.3g\n",
              samples.size(), worst_excess, worst_certificate, residual_stops,
              worst_residual);
  return samples;
}

std::size_t count_capped(const std::vector<PgdAccuracySample>& samples) {
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(), [](const PgdAccuracySample& s) {
        return s.stop == PgdStop::kIterationCap;
      }));
}

TEST(PgdAccuracyContract, ServeScenario) {
  // The served-slot fairness workload: 8 DCs x 96 types, V = 4, beta = 0.5.
  const auto samples = expect_accuracy_contract(make_serve_scenario(8, 96, /*seed=*/1),
                                                paper_grefar_params(4.0, 0.5),
                                                /*compact=*/true);
  EXPECT_EQ(count_capped(samples), 0u);
}

TEST(PgdAccuracyContract, PaperScenario) {
  // The paper's 3-DC scenario at beta = 100, at a small and a large V, over
  // the active types and over all of them.
  for (double V : {0.5, 20.0}) {
    for (bool compact : {true, false}) {
      SCOPED_TRACE("V=" + std::to_string(V) + " compact=" + std::to_string(compact));
      const auto samples = expect_accuracy_contract(
          make_paper_scenario(/*seed=*/42), paper_grefar_params(V, 100.0), compact);
      EXPECT_EQ(count_capped(samples), 0u);
    }
  }
}

TEST(PgdAccuracyContract, IterationCapSlot) {
  // Paper scenario seed 8 at the sixth sweep-grid V. Slot 93 is an
  // ill-conditioned beta = 100 slot where the nonmonotone search cycles:
  // huge spectral steps along flat directions are accepted against the
  // memory's old maxima, the solve reaches the 400-iteration cap, and its
  // last iterate is ~2% above its best one. The 1e-6 contract is NOT met
  // there: the best iterate is 8.6e-6 (relative) above the converged
  // oracle. This pins that excess below 1e-5; every other slot of the run
  // meets the contract.
  const auto samples = expect_accuracy_contract(
      make_paper_scenario(/*seed=*/8), paper_grefar_params(0.5 + 19.5 * 5.0 / 7.0, 100.0),
      /*compact=*/true, /*slots=*/94);
  ASSERT_EQ(samples.size(), 94u);
  const PgdAccuracySample& cap = samples[93];
  EXPECT_EQ(cap.stop, PgdStop::kIterationCap);
  EXPECT_EQ(count_capped(samples), 1u);
  const double relative = cap.excess() / (1.0 + std::abs(cap.reference));
  EXPECT_GT(relative, 0.0);
  EXPECT_LT(relative, 1e-5);
  std::printf("  slot 93: %d iterations, (f - f_ref) / (1 + |f_ref|) %.3g, oracle "
              "%d iterations\n",
              cap.iterations, relative, cap.reference_iterations);
}

// Parameterized: greedy optimality against brute force over a grid of V.
class GreedyOptimalityTest : public ::testing::TestWithParam<double> {};

TEST_P(GreedyOptimalityTest, MatchesBruteForce) {
  const double V = GetParam();
  ClusterConfig c;
  c.server_types = {{"fast", 1.0, 1.0}, {"eff", 0.5, 0.3}};
  c.data_centers = {{"dc", {3, 4}}};
  c.accounts = {{"a", 1.0}};
  c.job_types = {{"j0", 1.0, {0}, 0}, {"j1", 2.0, {0}, 0}};
  SlotObservation obs;
  obs.slot = 0;
  obs.prices = {0.45};
  obs.availability = Matrix<std::int64_t>(1, 2);
  obs.availability(0, 0) = 3;
  obs.availability(0, 1) = 4;
  obs.central_queue = {0.0, 0.0};
  obs.dc_queue = MatrixD(1, 2);
  obs.dc_queue(0, 0) = 3.0;
  obs.dc_queue(0, 1) = 1.5;

  PerSlotProblem problem(c, obs, params(V, 0.0));
  auto greedy = solve_per_slot_greedy(problem);
  auto brute = minimize_brute_force(
      [&](const std::vector<double>& x) { return problem.value(x); },
      problem.polytope(), 61);
  EXPECT_LE(problem.value(greedy), brute.objective + 1e-6) << "V=" << V;
}

INSTANTIATE_TEST_SUITE_P(VSweep, GreedyOptimalityTest,
                         ::testing::Values(0.0, 0.1, 0.5, 1.0, 2.5, 5.0, 7.5, 20.0));

}  // namespace
}  // namespace grefar

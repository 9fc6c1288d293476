// DESIGN.md §12: the per-slot solve over the active-type columns must be
// *bitwise* identical to the solve over all J columns — same route and
// process matrices, down to the last ulp — across multi-slot runs with
// churning active sets, for both the exact greedy (beta = 0) and SPG
// (beta > 0, warm starts remapped between column lists). Two scheduler
// instances see the identical observation stream; one gets the active-type
// hint (its columns), the other does not (all J).
#include <gtest/gtest.h>

#include <vector>

#include "core/drift_penalty.h"
#include "core/grefar.h"
#include "core/per_slot_solvers.h"
#include "obs/counters.h"
#include "obs/trace_scope.h"
#include "scenario/paper_scenario.h"
#include "support/fixtures.h"
#include "util/check.h"
#include "util/rng.h"

namespace grefar {
namespace {

ClusterConfig random_config(Rng& rng, std::size_t num_dcs, std::size_t num_types,
                            std::size_t num_accounts) {
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}, {"eco", 0.75, 0.6}};
  for (std::size_t i = 0; i < num_dcs; ++i) {
    c.data_centers.push_back({"dc" + std::to_string(i), {12, 8}});
  }
  double gamma_sum = 0.0;
  std::vector<double> gammas(num_accounts);
  for (auto& g : gammas) {
    g = rng.uniform(0.1, 1.0);
    gamma_sum += g;
  }
  for (std::size_t m = 0; m < num_accounts; ++m) {
    c.accounts.push_back({"a" + std::to_string(m), gammas[m] / gamma_sum});
  }
  for (std::size_t j = 0; j < num_types; ++j) {
    JobType jt;
    jt.name = "t" + std::to_string(j);
    jt.work = rng.uniform(0.5, 2.0);
    for (std::size_t i = 0; i < num_dcs; ++i) {
      if (rng.bernoulli(0.7)) jt.eligible_dcs.push_back(i);
    }
    if (jt.eligible_dcs.empty()) {
      jt.eligible_dcs.push_back(rng.uniform_int(0, static_cast<std::int64_t>(num_dcs) - 1));
    }
    jt.account = static_cast<AccountId>(
        rng.uniform_int(0, static_cast<std::int64_t>(num_accounts) - 1));
    c.job_types.push_back(std::move(jt));
  }
  c.validate();
  return c;
}

/// Random queue state honoring the hint contract: a type not in the active
/// list is zero everywhere. p_active churns per call; listed-but-empty
/// types exercise the superset tolerance.
SlotObservation random_obs(Rng& rng, const ClusterConfig& c, std::int64_t slot,
                           double p_active) {
  const std::size_t N = c.num_data_centers();
  const std::size_t J = c.num_job_types();
  SlotObservation obs;
  obs.slot = slot;
  obs.prices.resize(N);
  for (auto& p : obs.prices) p = rng.uniform(0.2, 0.8);
  obs.availability = Matrix<std::int64_t>(N, c.num_server_types());
  for (std::size_t i = 0; i < N; ++i) {
    obs.availability(i, 0) = rng.uniform_int(6, 12);
    obs.availability(i, 1) = rng.uniform_int(4, 8);
  }
  obs.central_queue.assign(J, 0.0);
  obs.dc_queue = MatrixD(N, J);
  obs.dc_queue.fill(0.0);
  obs.active_types.clear();
  for (std::size_t j = 0; j < J; ++j) {
    if (rng.uniform() >= p_active) continue;
    obs.active_types.push_back(static_cast<std::uint32_t>(j));
    if (rng.bernoulli(0.1)) continue;  // listed but empty (superset hint)
    obs.central_queue[j] = static_cast<double>(rng.uniform_int(0, 6));
    for (std::size_t i = 0; i < N; ++i) {
      if (rng.bernoulli(0.5)) {
        obs.dc_queue(i, j) = rng.uniform(0.0, 4.0);
      }
    }
  }
  obs.active_types_valid = true;
  return obs;
}

void expect_actions_bitwise_equal(const SlotAction& sparse, const SlotAction& dense,
                                  std::int64_t slot) {
  ASSERT_EQ(sparse.route.rows(), dense.route.rows());
  ASSERT_EQ(sparse.route.cols(), dense.route.cols());
  for (std::size_t i = 0; i < sparse.route.rows(); ++i) {
    for (std::size_t j = 0; j < sparse.route.cols(); ++j) {
      // EXPECT_EQ on doubles is exact — the bitwise contract.
      EXPECT_EQ(sparse.route(i, j), dense.route(i, j))
          << "route mismatch at slot " << slot << " (" << i << ", " << j << ")";
      EXPECT_EQ(sparse.process(i, j), dense.process(i, j))
          << "process mismatch at slot " << slot << " (" << i << ", " << j << ")";
    }
  }
}

/// `cold_each_slot` re-binds both schedulers with begin_run() before every
/// decide, so each slot starts SPG from the greedy point (a cold leg start)
/// instead of the previous slot's solution.
void run_sparse_vs_dense(GreFarParams params, std::uint64_t seed,
                         bool cold_each_slot = false) {
  Rng rng(seed);
  ClusterConfig config = random_config(rng, 3, 48, 12);
  GreFarScheduler with_hint(config, params);
  GreFarScheduler without_hint(config, params);

  obs::CounterRegistry counters;
  SlotAction a_sparse;
  SlotAction a_dense;
  for (std::int64_t t = 0; t < 60; ++t) {
    // Churn the density: sparse slots, dense slots, idle slots.
    double p_active = 0.15;
    if (t % 7 == 3) p_active = 0.9;
    if (t % 11 == 5) p_active = 0.0;
    SlotObservation obs = random_obs(rng, config, t, p_active);
    if (cold_each_slot) {
      with_hint.begin_run(params);
      without_hint.begin_run(params);
    }
    {
      obs::CountersScope scope(&counters);
      with_hint.decide_into(obs, a_sparse);
    }
    SlotObservation dense_obs = obs;
    dense_obs.active_types_valid = false;  // same state, no hint
    dense_obs.active_types.clear();
    without_hint.decide_into(dense_obs, a_dense);
    expect_actions_bitwise_equal(a_sparse, a_dense, t);
  }
  // The hinted scheduler must actually have dropped columns.
  EXPECT_GT(counters.counter("fairness.sparse_skips"), 0u);
}

TEST(SparseFairness, GreedyCompactMatchesDenseBitwise) {
  run_sparse_vs_dense(GreFarParams{}, 0xA11CE);
}

TEST(SparseFairness, PgdCompactMatchesDenseBitwise) {
  GreFarParams p;
  p.V = 2.0;
  p.beta = 0.5;
  run_sparse_vs_dense(p, 0xB0B);
}

TEST(SparseFairness, PgdColdStartCompactMatchesDenseBitwise) {
  GreFarParams p;
  p.V = 1.0;
  p.beta = 1.5;
  run_sparse_vs_dense(p, 0xC0FFEE, /*cold_each_slot=*/true);
}

TEST(SparseFairness, DenseSlotsInterleavedStayBitwise) {
  // Hint-less slots in the middle of a hinted run switch the column list to
  // all J and back (warm-start remaps, action-clear invariant resets).
  Rng rng(0xD15C0);
  ClusterConfig config = random_config(rng, 2, 32, 8);
  GreFarParams params;
  params.V = 2.0;
  params.beta = 0.8;
  GreFarScheduler mixed(config, params);
  GreFarScheduler dense(config, params);
  SlotAction a_mixed;
  SlotAction a_dense;
  for (std::int64_t t = 0; t < 40; ++t) {
    SlotObservation obs = random_obs(rng, config, t, 0.25);
    SlotObservation mixed_obs = obs;
    if (t % 3 == 1) {  // every third slot loses the hint
      mixed_obs.active_types_valid = false;
      mixed_obs.active_types.clear();
    }
    mixed.decide_into(mixed_obs, a_mixed);
    SlotObservation dense_obs = obs;
    dense_obs.active_types_valid = false;
    dense_obs.active_types.clear();
    dense.decide_into(dense_obs, a_dense);
    expect_actions_bitwise_equal(a_mixed, a_dense, t);
  }
}

/// Drives the engine with an untraced GreFar and, on the side, decides every
/// observation again with a traced twin. Counts slots whose actions differ
/// in any bit, and slots whose drift-weight census differs from a loop over
/// all J types and their eligible DCs.
class TracedTwin final : public Scheduler {
 public:
  TracedTwin(const ClusterConfig& config, const GreFarParams& params)
      : config_(config), untraced_(config, params), traced_(config, params) {}

  SlotAction decide(const SlotObservation& obs) override {
    SlotAction action;
    decide_into(obs, action);
    return action;
  }
  void decide_into(const SlotObservation& obs, SlotAction& out) override {
    untraced_.decide_into(obs, out);
    scope_.clear();
    traced_.decide_into(obs, twin_, &scope_);
    if (twin_.route.data() != out.route.data() ||
        twin_.process.data() != out.process.data()) {
      ++action_mismatches;
    }
    std::size_t negative = 0;
    std::size_t nonnegative = 0;
    for (std::size_t j = 0; j < config_.num_job_types(); ++j) {
      for (DataCenterId i : config_.job_types[j].eligible_dcs) {
        if (obs.dc_queue(i, j) < obs.central_queue[j]) {
          ++negative;
        } else {
          ++nonnegative;
        }
      }
    }
    if (scope_.drift_weights_negative != negative ||
        scope_.drift_weights_nonnegative != nonnegative) {
      ++census_mismatches;
    }
    if (obs.active_types.size() < config_.num_job_types()) ++slots_with_idle_types;
    ++slots;
  }
  std::string name() const override { return "TracedTwin"; }

  int slots = 0;
  int slots_with_idle_types = 0;
  int action_mismatches = 0;
  int census_mismatches = 0;

 private:
  const ClusterConfig& config_;
  GreFarScheduler untraced_;
  GreFarScheduler traced_;
  SlotAction twin_;
  TraceScope scope_;
};

TEST(SparseFairness, TracedDecideMatchesUntracedBitwise) {
  // The paper scenario has idle job types in most slots, so the traced
  // decide works over fewer than J columns there; its actions must be the
  // untraced ones and its census the all-J count. Greedy and SPG.
  for (double beta : {0.0, 100.0}) {
    SCOPED_TRACE("beta=" + std::to_string(beta));
    PaperScenario scenario = make_paper_scenario(42);
    auto twin = std::make_shared<TracedTwin>(scenario.config,
                                             paper_grefar_params(7.5, beta));
    run_scenario(scenario, twin, 200);
    EXPECT_EQ(twin->slots, 200);
    EXPECT_GT(twin->slots_with_idle_types, 0);
    EXPECT_EQ(twin->action_mismatches, 0);
    EXPECT_EQ(twin->census_mismatches, 0);
  }
}

TEST(SparseFairness, SameSizeColumnListRebuildsColumnArrays) {
  // Two slots whose hints list different types of the same count: the
  // second reset must gather its own per-column arrays, so its solve equals
  // the all-J solve of the same slot scattered to full coordinates.
  const ClusterConfig config = make_paper_scenario(42).config;
  const std::size_t N = config.num_data_centers();
  const std::size_t J = config.num_job_types();
  Rng rng(0x5A3E);
  SlotObservation first = random_obs(rng, config, 0, 0.5);
  SlotObservation second = random_obs(rng, config, 1, 0.5);
  // Same count, disjoint types: the first list's complement, cut to size.
  first.active_types = {0, 2, 4};
  second.active_types = {1, 3, 5};
  for (std::size_t j = 0; j < J; ++j) {
    const bool in_first = j == 0 || j == 2 || j == 4;
    const bool in_second = j == 1 || j == 3 || j == 5;
    if (!in_first) first.central_queue[j] = 0.0;
    if (!in_second) second.central_queue[j] = 0.0;
    for (std::size_t i = 0; i < N; ++i) {
      if (!in_first) first.dc_queue(i, j) = 0.0;
      if (!in_second) second.dc_queue(i, j) = 0.0;
      if (in_second && config.job_types[j].eligible(i)) {
        second.dc_queue(i, j) = 2.0 + static_cast<double>(i + j);
      }
    }
  }
  SlotObservation all_types = second;
  all_types.active_types_valid = false;
  all_types.active_types.clear();
  for (double beta : {0.0, 0.5}) {
    SCOPED_TRACE("beta=" + std::to_string(beta));
    GreFarParams params;
    params.V = 1.0;
    params.beta = beta;
    PerSlotProblem listed = observed_problem(config, first, params);
    ASSERT_EQ(listed.num_columns(), 3u);
    listed.reset(second);
    ASSERT_EQ(listed.columns(), second.active_types);
    PerSlotProblem full = observed_problem(config, all_types, params);
    ASSERT_EQ(full.num_columns(), J);
    std::vector<double> u_listed;
    std::vector<double> u_full;
    PerSlotScratch scratch_listed;
    PerSlotScratch scratch_full;
    solve_per_slot_into(listed, u_listed, scratch_listed);
    solve_per_slot_into(full, u_full, scratch_full);
    std::vector<double> scattered(N * J, 0.0);
    for (std::size_t i = 0; i < N; ++i) {
      for (std::size_t a = 0; a < 3; ++a) {
        scattered[i * J + second.active_types[a]] = u_listed[i * 3 + a];
      }
    }
    double work = 0.0;
    for (double u : u_full) work += u;
    EXPECT_GT(work, 0.0);
    for (std::size_t k = 0; k < N * J; ++k) {
      EXPECT_EQ(scattered[k], u_full[k]) << "index " << k;
    }
  }
}

TEST(SparseFairness, DriftPenaltyRejectsOutOfRangeAccount) {
  // Satellite (a): a job type referencing a missing account must fail fast
  // at problem construction with a pointed message, not corrupt the
  // fairness buffers at solve time.
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc0", {4}}};
  c.accounts = {{"only", 1.0}};
  c.job_types = {{"bad", 1.0, {0}, 1}};  // account 1 of a 1-account cluster
  SlotObservation obs;
  obs.slot = 0;
  obs.prices = {0.5};
  obs.availability = Matrix<std::int64_t>(1, 1);
  obs.availability(0, 0) = 4;
  obs.central_queue = {0.0};
  obs.dc_queue = MatrixD(1, 1);
  EXPECT_THROW(observed_problem(c, obs, GreFarParams{}), ContractViolation);
}

}  // namespace
}  // namespace grefar

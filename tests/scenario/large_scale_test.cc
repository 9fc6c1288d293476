// The scale-out scenario at test-friendly sizes: the same factory the 1M
// smoke uses (bench/large_scale_smoke.cc), shrunk so every property runs in
// milliseconds. Determinism is the key invariant: a scheduler re-bound to a
// new leg must run the sparse per-slot path bit-identically to a fresh one
// (DESIGN.md §12, §16).
#include "scenario/large_scale.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "check/invariant_auditor.h"
#include "core/grefar.h"
#include "sim/engine.h"
#include "util/check.h"

namespace grefar {
namespace {

LargeScaleOptions small_options() {
  LargeScaleOptions o;
  o.branching = {4, 5, 10};  // 200 leaves
  o.account_level = 2;
  o.num_dcs = 2;
  o.draws_per_slot = 24;
  o.seed = 77;
  return o;
}

TEST(LargeScale, ScenarioShapesAndConsistency) {
  LargeScaleScenario s = make_large_scale_scenario(small_options());
  EXPECT_EQ(s.config->num_job_types(), 200u);
  EXPECT_EQ(s.config->num_accounts(), 200u);
  EXPECT_EQ(s.config->num_data_centers(), 2u);
  EXPECT_EQ(s.arrivals->num_job_types(), 200u);
  // One job type per leaf, account = its ancestor at the chosen level.
  for (std::size_t j = 0; j < 200; ++j) {
    EXPECT_EQ(s.config->job_types[j].account, s.tree.ancestor_of_leaf(j, 2));
  }
}

TEST(LargeScale, AccountsCanComeFromCoarserLevel) {
  LargeScaleOptions o = small_options();
  o.account_level = 1;  // teams, not users
  LargeScaleScenario s = make_large_scale_scenario(o);
  EXPECT_EQ(s.config->num_accounts(), 20u);
  for (std::size_t j = 0; j < s.config->num_job_types(); ++j) {
    EXPECT_LT(s.config->job_types[j].account, 20u);
  }
}

TEST(LargeScale, ZipfArrivalsAreDeterministicAndRandomAccess) {
  ZipfArrivals a(500, 40, 1.1, 9);
  ZipfArrivals b(500, 40, 1.1, 9);
  // Out-of-order access must replay byte-identically.
  auto a7 = a.arrivals(7);
  auto a3 = a.arrivals(3);
  EXPECT_EQ(b.arrivals(3), a3);
  EXPECT_EQ(b.arrivals(7), a7);
  std::int64_t total = 0;
  for (auto n : a7) total += n;
  EXPECT_EQ(total, 40);  // every draw lands on some type
}

TEST(LargeScale, ZipfSampleBoundaries) {
  ZipfArrivals a(5, 10, 1.0, 1);
  // u = 0 lands strictly inside the first (most popular) type: the inverse
  // CDF is "smallest j with cumulative_[j] > 0", which is type 0.
  EXPECT_EQ(a.sample(0.0), 0u);
  // u just below 1 must hit the last type, and the upper_bound-end decrement
  // must keep u == 1.0 (never produced by Rng::uniform, but reachable
  // through accumulated rounding in u * total) in range instead of walking
  // one past the end.
  EXPECT_EQ(a.sample(std::nextafter(1.0, 0.0)), 4u);
  EXPECT_EQ(a.sample(1.0), 4u);
  // Single-type degenerate case: everything maps to type 0.
  ZipfArrivals one(1, 3, 2.0, 1);
  EXPECT_EQ(one.sample(0.0), 0u);
  EXPECT_EQ(one.sample(1.0), 0u);
}

TEST(LargeScale, ZipfMaxArrivalsBoundsEverySlot) {
  ZipfArrivals a(64, 17, 1.1, 5);
  for (std::size_t j = 0; j < 64; ++j) {
    EXPECT_EQ(a.max_arrivals(j), 17);
  }
  for (std::int64_t t = 0; t < 50; ++t) {
    for (auto n : a.arrivals(t)) {
      EXPECT_LE(n, a.max_arrivals(0));
    }
  }
}

TEST(LargeScale, ZipfArrivalsIntoReplaysOutOfOrder) {
  ZipfArrivals a(100, 25, 1.3, 42);
  ZipfArrivals b(100, 25, 1.3, 42);
  // Interleaved, reversed, and repeated slot access through the reusing
  // _into API must all replay byte-identically (pure function of (seed, t)).
  std::vector<std::int64_t> out_a;
  std::vector<std::int64_t> out_b;
  const std::vector<std::int64_t> order_a = {9, 2, 5, 2, 0, 9};
  const std::vector<std::int64_t> order_b = {0, 9, 5, 9, 2, 2};
  std::vector<std::vector<std::int64_t>> seen_a(10);
  std::vector<std::vector<std::int64_t>> seen_b(10);
  for (std::int64_t t : order_a) {
    a.arrivals_into(t, out_a);
    seen_a[static_cast<std::size_t>(t)] = out_a;
  }
  for (std::int64_t t : order_b) {
    b.arrivals_into(t, out_b);
    seen_b[static_cast<std::size_t>(t)] = out_b;
  }
  for (std::int64_t t : {0, 2, 5, 9}) {
    EXPECT_EQ(seen_a[static_cast<std::size_t>(t)],
              seen_b[static_cast<std::size_t>(t)])
        << "slot " << t;
  }
}

TEST(LargeScale, ZipfHeadIsHeavierThanTail) {
  ZipfArrivals a(1000, 50, 1.2, 123);
  std::int64_t head = 0;
  std::int64_t tail = 0;
  for (std::int64_t t = 0; t < 200; ++t) {
    auto counts = a.arrivals(t);
    for (std::size_t j = 0; j < 10; ++j) head += counts[j];
    for (std::size_t j = 990; j < 1000; ++j) tail += counts[j];
  }
  EXPECT_GT(head, 10 * (tail + 1));
}

std::unique_ptr<SimulationEngine> make_engine(const LargeScaleScenario& s,
                                              std::shared_ptr<GreFarScheduler> scheduler,
                                              bool audit) {
  const GreFarParams params = scheduler->params();
  auto engine = std::make_unique<SimulationEngine>(s.config, s.prices,
                                                   s.availability, s.arrivals,
                                                   std::move(scheduler));
  if (audit) {
    InvariantAuditorOptions opts;
    opts.throw_on_violation = true;
    opts.expect_queue_bounded_ask = true;
    opts.r_max = params.r_max;
    opts.h_max = params.h_max;
    engine->set_inspector(std::make_shared<InvariantAuditor>(s.config, opts));
  }
  return engine;
}

std::unique_ptr<SimulationEngine> make_engine(const LargeScaleScenario& s,
                                              const GreFarParams& params, bool audit) {
  return make_engine(s, std::make_shared<GreFarScheduler>(s.config, params), audit);
}

TEST(LargeScale, AuditedGreedyRunIsClean) {
  LargeScaleScenario s = make_large_scale_scenario(small_options());
  auto engine = make_engine(s, large_scale_grefar_params(2.0, 0.0), /*audit=*/true);
  engine->run(40);  // throw_on_violation aborts on any invariant break
  EXPECT_GT(engine->metrics().delay_stats.count(), 0);
}

TEST(LargeScale, AuditedPgdRunIsClean) {
  LargeScaleScenario s = make_large_scale_scenario(small_options());
  auto engine = make_engine(s, large_scale_grefar_params(2.0, 0.5), /*audit=*/true);
  engine->run(40);
  EXPECT_GT(engine->metrics().delay_stats.count(), 0);
}

void expect_runs_bitwise_equal(const SimMetrics& a, const SimMetrics& b) {
  ASSERT_EQ(a.slots(), b.slots());
  for (std::size_t t = 0; t < a.slots(); ++t) {
    EXPECT_EQ(a.energy_cost.values()[t], b.energy_cost.values()[t]) << "slot " << t;
    EXPECT_EQ(a.fairness.values()[t], b.fairness.values()[t]) << "slot " << t;
    EXPECT_EQ(a.total_queue_jobs.values()[t], b.total_queue_jobs.values()[t])
        << "slot " << t;
  }
  for (std::size_t i = 0; i < a.num_data_centers(); ++i) {
    EXPECT_EQ(a.dc_routed_jobs[i].sum(), b.dc_routed_jobs[i].sum());
    EXPECT_EQ(a.dc_work[i].sum(), b.dc_work[i].sum());
  }
  ASSERT_EQ(a.account_work_total.size(), b.account_work_total.size());
  for (std::size_t m = 0; m < a.account_work_total.size(); ++m) {
    EXPECT_EQ(a.account_work_total[m], b.account_work_total[m]) << "account " << m;
  }
}

TEST(LargeScale, RunsAreBitIdenticalAfterBeginRun) {
  // A scheduler that already ran another leg (different V and beta, so its
  // warm start, caches and sparse bookkeeping all hold state) and is then
  // re-bound with begin_run() must reproduce a fresh scheduler's run bit
  // for bit: every leg starts cold.
  LargeScaleScenario s = make_large_scale_scenario(small_options());
  const GreFarParams params = large_scale_grefar_params(2.0, 0.5);
  auto fresh = make_engine(s, params, /*audit=*/false);
  fresh->run(30);

  auto reused = std::make_shared<GreFarScheduler>(s.config,
                                                  large_scale_grefar_params(5.0, 1.5));
  make_engine(s, reused, /*audit=*/false)->run(20);
  reused->begin_run(params);
  auto again = make_engine(s, reused, /*audit=*/false);
  again->run(30);
  expect_runs_bitwise_equal(fresh->metrics(), again->metrics());
}

}  // namespace
}  // namespace grefar

#include "sim/engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/grefar.h"
#include "price/price_model.h"
#include "scenario/paper_scenario.h"
#include "util/check.h"
#include "util/rng.h"

namespace grefar {
namespace {

/// Test scheduler driven by a lambda.
class LambdaScheduler final : public Scheduler {
 public:
  using Fn = std::function<SlotAction(const SlotObservation&)>;
  explicit LambdaScheduler(Fn fn) : fn_(std::move(fn)) {}

  SlotAction decide(const SlotObservation& obs) override { return fn_(obs); }
  std::string name() const override { return "lambda"; }

 private:
  Fn fn_;
};

ClusterConfig simple_config() {
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc1", {10}}, {"dc2", {10}}};
  c.accounts = {{"acct", 1.0}};
  c.job_types = {{"job", 1.0, {0, 1}, 0}};
  return c;
}

SlotAction idle_action(const SlotObservation& obs) {
  SlotAction a;
  a.route = MatrixD(obs.dc_queue.rows(), obs.dc_queue.cols());
  a.process = MatrixD(obs.dc_queue.rows(), obs.dc_queue.cols());
  return a;
}

std::unique_ptr<SimulationEngine> make_engine(
    LambdaScheduler::Fn fn, std::vector<std::int64_t> arrivals = {2},
    ClusterConfig config = simple_config()) {
  auto prices = std::make_shared<ConstantPriceModel>(
      std::vector<double>(config.num_data_centers(), 0.5));
  auto avail = std::make_shared<FullAvailability>(config.data_centers);
  auto arr = std::make_shared<ConstantArrivals>(std::move(arrivals));
  auto sched = std::make_shared<LambdaScheduler>(std::move(fn));
  return std::make_unique<SimulationEngine>(std::move(config), prices, avail, arr,
                                            sched);
}

TEST(Engine, ArrivalsEnterCentralQueue) {
  auto engine = make_engine(idle_action);
  engine->step();
  EXPECT_DOUBLE_EQ(engine->central_queue_length(0), 2.0);
  engine->step();
  EXPECT_DOUBLE_EQ(engine->central_queue_length(0), 4.0);
  EXPECT_EQ(engine->slot(), 2);
}

TEST(Engine, ObservationReflectsState) {
  auto engine = make_engine(idle_action);
  engine->step();
  auto obs = engine->observe();
  EXPECT_EQ(obs.slot, 1);
  EXPECT_DOUBLE_EQ(obs.central_queue[0], 2.0);
  EXPECT_DOUBLE_EQ(obs.prices[0], 0.5);
  EXPECT_EQ(obs.availability(0, 0), 10);
  EXPECT_DOUBLE_EQ(obs.dc_queue(0, 0), 0.0);
}

TEST(Engine, RoutingMovesJobsClampedByQueue) {
  auto engine = make_engine([](const SlotObservation& obs) {
    auto a = idle_action(obs);
    a.route(0, 0) = 100.0;  // want far more than queued
    return a;
  });
  engine->step();  // queue empty: nothing to route
  EXPECT_DOUBLE_EQ(engine->dc_queue_length(0, 0), 0.0);
  engine->step();  // 2 queued jobs move
  EXPECT_DOUBLE_EQ(engine->dc_queue_length(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(engine->central_queue_length(0), 2.0);  // fresh arrivals
}

TEST(Engine, RoutingSplitsAcrossDataCenters) {
  auto engine = make_engine([](const SlotObservation& obs) {
    auto a = idle_action(obs);
    a.route(0, 0) = 1.0;
    a.route(1, 0) = 1.0;
    return a;
  });
  engine->run(2);
  EXPECT_DOUBLE_EQ(engine->dc_queue_length(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(engine->dc_queue_length(1, 0), 1.0);
}

TEST(Engine, FractionalRoutingAskIsContractViolation) {
  // Integer-routing contract (sim/scheduler.h): a scheduler emitting an
  // unrounded relaxation value must fail loudly, not be silently floored.
  auto engine = make_engine([](const SlotObservation& obs) {
    auto a = idle_action(obs);
    a.route(0, 0) = 2.4;
    return a;
  });
  EXPECT_THROW(engine->step(), ContractViolation);
}

TEST(Engine, NearIntegralRoutingAskIsAccepted) {
  // Floating-point noise up to 1e-6 rounds to the nearest integer.
  auto engine = make_engine([](const SlotObservation& obs) {
    auto a = idle_action(obs);
    a.route(0, 0) = 2.0 + 5e-7;
    return a;
  });
  engine->step();  // queue empty
  engine->step();  // routes the 2 queued jobs
  EXPECT_DOUBLE_EQ(engine->dc_queue_length(0, 0), 2.0);
}

TEST(Engine, IneligibleRoutingIsContractViolation) {
  ClusterConfig config = simple_config();
  config.job_types[0].eligible_dcs = {0};  // DC2 not allowed
  auto engine = make_engine(
      [](const SlotObservation& obs) {
        auto a = idle_action(obs);
        a.route(1, 0) = 1.0;
        return a;
      },
      {2}, config);
  EXPECT_THROW(engine->step(), ContractViolation);
}

TEST(Engine, IneligibleProcessingIsContractViolation) {
  ClusterConfig config = simple_config();
  config.job_types[0].eligible_dcs = {0};
  auto engine = make_engine(
      [](const SlotObservation& obs) {
        auto a = idle_action(obs);
        a.process(1, 0) = 1.0;
        return a;
      },
      {2}, config);
  EXPECT_THROW(engine->step(), ContractViolation);
}

TEST(Engine, ServiceCompletesJobsAndChargesEnergy) {
  auto engine = make_engine([](const SlotObservation& obs) {
    auto a = idle_action(obs);
    a.route(0, 0) = obs.central_queue[0];
    a.process(0, 0) = obs.dc_queue(0, 0) + obs.central_queue[0];
    return a;
  });
  engine->run(3);
  const auto& m = engine->metrics();
  // Slot 0: nothing to do. Slots 1, 2: 2 jobs routed+served each.
  EXPECT_DOUBLE_EQ(m.energy_cost.at(0), 0.0);
  // speed 1, power 1, price 0.5 => energy cost = 0.5 * work.
  EXPECT_DOUBLE_EQ(m.energy_cost.at(1), 1.0);
  EXPECT_DOUBLE_EQ(m.energy_cost.at(2), 1.0);
  EXPECT_DOUBLE_EQ(m.dc_completions[0].at(1), 2.0);
  // Jobs arrived at slot 0, completed at slot 1: delay 1 each.
  EXPECT_DOUBLE_EQ(m.dc_delay_sum[0].at(1), 2.0);
}

TEST(Engine, ProcessingIsClampedToCapacity) {
  // Capacity is 10 work/slot; demand 30 queued jobs of work 1.
  auto engine = make_engine(
      [](const SlotObservation& obs) {
        auto a = idle_action(obs);
        a.route(0, 0) = obs.central_queue[0];
        a.process(0, 0) = obs.dc_queue(0, 0) + obs.central_queue[0];
        return a;
      },
      {30});
  engine->run(2);
  const auto& m = engine->metrics();
  EXPECT_DOUBLE_EQ(m.dc_work[0].at(1), 10.0);  // capped
  EXPECT_DOUBLE_EQ(engine->dc_queue_length(0, 0), 20.0);
}

TEST(Engine, FairnessRecordedAgainstTotalResource) {
  auto engine = make_engine([](const SlotObservation& obs) {
    auto a = idle_action(obs);
    a.route(0, 0) = obs.central_queue[0];
    a.process(0, 0) = 100.0;
    return a;
  });
  engine->run(2);
  const auto& m = engine->metrics();
  // Slot 1: 2 units of work for the only account, R = 20; gamma = 1.
  double expected = -(2.0 / 20.0 - 1.0) * (2.0 / 20.0 - 1.0);
  EXPECT_NEAR(m.fairness.at(1), expected, 1e-12);
}

TEST(Engine, MetricsSeriesHaveOneEntryPerSlot) {
  auto engine = make_engine(idle_action);
  engine->run(7);
  const auto& m = engine->metrics();
  EXPECT_EQ(m.slots(), 7u);
  EXPECT_EQ(m.energy_cost.size(), 7u);
  EXPECT_EQ(m.fairness.size(), 7u);
  EXPECT_EQ(m.arrived_jobs.size(), 7u);
  EXPECT_EQ(m.dc_work[0].size(), 7u);
  EXPECT_EQ(m.dc_price[1].size(), 7u);
  EXPECT_EQ(m.account_work[0].size(), 7u);
  EXPECT_DOUBLE_EQ(m.arrived_jobs.at(3), 2.0);
  EXPECT_DOUBLE_EQ(m.arrived_work.at(3), 2.0);
}

TEST(Engine, QueueTelemetryTracksBacklog) {
  auto engine = make_engine(idle_action);
  engine->run(5);
  const auto& m = engine->metrics();
  // After service at slot t (no service here), queues hold 2*t jobs.
  EXPECT_DOUBLE_EQ(m.total_queue_jobs.at(4), 8.0);  // before slot-4 arrivals
  EXPECT_DOUBLE_EQ(m.max_queue_jobs.at(4), 8.0);
}

TEST(Engine, RoutedJobsMetricCountsActualMoves) {
  auto engine = make_engine([](const SlotObservation& obs) {
    auto a = idle_action(obs);
    a.route(0, 0) = 100.0;  // desire far more than available
    return a;
  });
  engine->run(3);
  const auto& m = engine->metrics();
  EXPECT_DOUBLE_EQ(m.dc_routed_jobs[0].at(0), 0.0);  // nothing queued yet
  EXPECT_DOUBLE_EQ(m.dc_routed_jobs[0].at(1), 2.0);  // the slot-0 arrivals
  EXPECT_DOUBLE_EQ(m.dc_routed_jobs[0].at(2), 2.0);
  EXPECT_DOUBLE_EQ(m.dc_routed_jobs[1].at(1), 0.0);
}

TEST(Engine, RoutedJobsKeepArrivalSlotAndGainDcEntrySlot) {
  // Route at slot 1, serve at slot 3: total delay 3, dc delay 2.
  int slot_counter = 0;
  auto engine = make_engine([&](const SlotObservation& obs) {
    auto a = idle_action(obs);
    if (obs.slot == 1) a.route(0, 0) = 10.0;
    if (obs.slot == 3) a.process(0, 0) = 10.0;
    ++slot_counter;
    return a;
  });
  engine->run(4);
  const auto& m = engine->metrics();
  EXPECT_DOUBLE_EQ(m.dc_completions[0].at(3), 2.0);
  EXPECT_DOUBLE_EQ(m.dc_delay_sum[0].at(3), 6.0);  // 2 jobs x (3 - 0)
}

TEST(Engine, PartialServiceLeavesFractionalQueue) {
  ClusterConfig config = simple_config();
  config.job_types[0].work = 4.0;
  auto engine = make_engine(
      [](const SlotObservation& obs) {
        auto a = idle_action(obs);
        a.route(0, 0) = obs.central_queue[0];
        a.process(0, 0) = 0.5;  // half a job per slot
        return a;
      },
      {1}, config);
  engine->run(2);
  // One job routed and half-served at slot 1: queue length 1.5 jobs total
  // (0.5 remaining of the first + the freshly arrived slot-1 job still
  // central). DC queue alone holds 0.5.
  EXPECT_NEAR(engine->dc_queue_length(0, 0), 0.5, 1e-9);
}

TEST(Engine, WrongActionShapeIsContractViolation) {
  auto engine = make_engine([](const SlotObservation&) {
    SlotAction a;
    a.route = MatrixD(1, 1);
    a.process = MatrixD(1, 1);
    return a;
  });
  EXPECT_THROW(engine->step(), ContractViolation);
}

TEST(Engine, MismatchedModelsAreRejected) {
  auto config = simple_config();
  auto prices = std::make_shared<ConstantPriceModel>(std::vector<double>{0.5});  // 1 DC
  auto avail = std::make_shared<FullAvailability>(config.data_centers);
  auto arr = std::make_shared<ConstantArrivals>(std::vector<std::int64_t>{1});
  auto sched = std::make_shared<LambdaScheduler>(idle_action);
  EXPECT_THROW(SimulationEngine(config, prices, avail, arr, sched),
               ContractViolation);
}

TEST(Engine, NegativeDecisionsAreContractViolations) {
  auto engine = make_engine([](const SlotObservation& obs) {
    auto a = idle_action(obs);
    a.process(0, 0) = -1.0;
    return a;
  });
  EXPECT_THROW(engine->step(), ContractViolation);
}

// The sweep-arena contract: after reset() a used engine is observably a
// fresh engine — a full GreFar run on the reset engine must be bitwise
// identical to the same run on a newly constructed one.
TEST(Engine, ResetMatchesFreshEngineBitwise) {
  constexpr std::int64_t kSlots = 50;
  auto scenario_a = make_paper_scenario(/*seed=*/42);
  auto scenario_b = make_paper_scenario(/*seed=*/43);
  auto make_grefar = [](const PaperScenario& s) {
    return std::make_shared<GreFarScheduler>(
        s.config, paper_grefar_params(/*V=*/7.5, /*beta=*/100.0));
  };

  // Dirty an engine on scenario A, then reset it onto scenario B.
  auto reused = make_scenario_engine(scenario_a, make_grefar(scenario_a));
  reused->run(kSlots);
  auto config_b = std::make_shared<const ClusterConfig>(scenario_b.config);
  reused->reset(config_b, scenario_b.prices, scenario_b.availability,
                scenario_b.arrivals, make_grefar(scenario_b));
  reused->run(kSlots);

  // Reference: a brand-new engine on scenario B (fresh models — the lazy
  // caches are deterministic per seed, so regenerating is equivalent).
  auto scenario_b2 = make_paper_scenario(/*seed=*/43);
  auto fresh = make_scenario_engine(scenario_b2, make_grefar(scenario_b2));
  fresh->run(kSlots);

  const auto& mr = reused->metrics();
  const auto& mf = fresh->metrics();
  ASSERT_EQ(mr.slots(), mf.slots());
  for (std::size_t t = 0; t < mr.slots(); ++t) {
    EXPECT_EQ(mr.energy_cost.at(t), mf.energy_cost.at(t)) << "slot " << t;
    EXPECT_EQ(mr.fairness.at(t), mf.fairness.at(t)) << "slot " << t;
    EXPECT_EQ(mr.arrived_jobs.at(t), mf.arrived_jobs.at(t)) << "slot " << t;
  }
  EXPECT_EQ(mr.account_work_total, mf.account_work_total);
  EXPECT_EQ(mr.mean_delay(), mf.mean_delay());
  EXPECT_EQ(mr.delay_p50(), mf.delay_p50());
  EXPECT_EQ(mr.delay_p99(), mf.delay_p99());
  EXPECT_EQ(mr.delay_stats.max(), mf.delay_stats.max());
}

// Re-running after a reset to the *same* scenario (same config pointer, the
// skip-revalidation fast path) reproduces the original run.
TEST(Engine, ResetToSameScenarioReplaysRun) {
  constexpr std::int64_t kSlots = 40;
  auto scenario = make_paper_scenario(/*seed=*/42);
  auto config = std::make_shared<const ClusterConfig>(scenario.config);
  auto make_grefar = [&] {
    return std::make_shared<GreFarScheduler>(config,
                                             paper_grefar_params(7.5, 0.0));
  };
  SimulationEngine engine(config, scenario.prices, scenario.availability,
                          scenario.arrivals, make_grefar());
  engine.run(kSlots);
  const std::vector<double> first = engine.metrics().energy_cost.values();
  engine.reset(config, scenario.prices, scenario.availability, scenario.arrivals,
               make_grefar());
  engine.run(kSlots);
  EXPECT_EQ(engine.metrics().energy_cost.values(), first);
}

// --- The pushed entry: step(const SlotInput&) ------------------------------

/// Flattens every field of each SlotRecord into bit patterns, so two runs'
/// records compare bitwise (NaN included).
class BitRecorder final : public SlotInspector {
 public:
  void inspect(const SlotRecord& r) override {
    std::vector<std::uint64_t>& out = records.emplace_back();
    auto put = [&out](double v) { out.push_back(std::bit_cast<std::uint64_t>(v)); };
    auto put_vec = [&put](const std::vector<double>& v) {
      for (double x : v) put(x);
    };
    auto put_ints = [&out](const std::vector<std::int64_t>& v) {
      for (std::int64_t x : v) out.push_back(static_cast<std::uint64_t>(x));
    };
    auto put_mat = [&put](const MatrixD& m) {
      for (std::size_t i = 0; i < m.rows(); ++i) {
        for (std::size_t j = 0; j < m.cols(); ++j) put(m(i, j));
      }
    };
    out.push_back(static_cast<std::uint64_t>(r.slot));
    put_vec(r.obs->prices);
    put_vec(r.obs->central_queue);
    put_mat(r.obs->dc_queue);
    for (std::uint32_t j : r.obs->active_types) out.push_back(j);
    put_mat(r.action->route);
    put_mat(r.action->process);
    put_mat(*r.routed);
    put_mat(*r.served_work);
    put_vec(*r.dc_capacity);
    put_vec(*r.dc_energy_cost);
    put_vec(*r.dc_completions);
    put_vec(*r.dc_delay_sum);
    put_vec(*r.account_work);
    put(r.fairness);
    put_ints(*r.arrivals);
    put_ints(*r.offered);
    put_vec(*r.central_after);
    put_mat(*r.dc_after);
    out.push_back(r.admission_active ? 1 : 0);
    for (double v : {r.admitted_value, r.rejected_value, r.realized_value,
                     r.decay_loss, r.abandoned_jobs, r.abandoned_work,
                     r.abandoned_value, r.queued_value_after}) {
      put(v);
    }
    out.push_back(static_cast<std::uint64_t>(r.deadline_violations));
  }

  std::vector<std::vector<std::uint64_t>> records;
};

void expect_series_bitwise(const TimeSeries& a, const TimeSeries& b, const char* name) {
  ASSERT_EQ(a.size(), b.size()) << name;
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.at(t)), std::bit_cast<std::uint64_t>(b.at(t)))
        << name << " slot " << t;
  }
}

void expect_metrics_bitwise(const SimMetrics& a, const SimMetrics& b) {
  expect_series_bitwise(a.energy_cost, b.energy_cost, "energy_cost");
  expect_series_bitwise(a.fairness, b.fairness, "fairness");
  expect_series_bitwise(a.arrived_jobs, b.arrived_jobs, "arrived_jobs");
  expect_series_bitwise(a.arrived_work, b.arrived_work, "arrived_work");
  expect_series_bitwise(a.total_queue_jobs, b.total_queue_jobs, "total_queue_jobs");
  expect_series_bitwise(a.max_queue_jobs, b.max_queue_jobs, "max_queue_jobs");
  expect_series_bitwise(a.offered_jobs, b.offered_jobs, "offered_jobs");
  expect_series_bitwise(a.rejected_jobs, b.rejected_jobs, "rejected_jobs");
  expect_series_bitwise(a.abandoned_jobs, b.abandoned_jobs, "abandoned_jobs");
  expect_series_bitwise(a.abandoned_work, b.abandoned_work, "abandoned_work");
  expect_series_bitwise(a.admitted_value, b.admitted_value, "admitted_value");
  expect_series_bitwise(a.rejected_value, b.rejected_value, "rejected_value");
  expect_series_bitwise(a.abandoned_value, b.abandoned_value, "abandoned_value");
  expect_series_bitwise(a.realized_value, b.realized_value, "realized_value");
  expect_series_bitwise(a.decay_loss, b.decay_loss, "decay_loss");
  ASSERT_EQ(a.dc_energy_cost.size(), b.dc_energy_cost.size());
  for (std::size_t i = 0; i < a.dc_energy_cost.size(); ++i) {
    expect_series_bitwise(a.dc_energy_cost[i], b.dc_energy_cost[i], "dc_energy_cost");
    expect_series_bitwise(a.dc_work[i], b.dc_work[i], "dc_work");
    expect_series_bitwise(a.dc_routed_jobs[i], b.dc_routed_jobs[i], "dc_routed_jobs");
    expect_series_bitwise(a.dc_delay_sum[i], b.dc_delay_sum[i], "dc_delay_sum");
    expect_series_bitwise(a.dc_completions[i], b.dc_completions[i], "dc_completions");
    expect_series_bitwise(a.dc_price[i], b.dc_price[i], "dc_price");
  }
  EXPECT_EQ(a.account_work_total, b.account_work_total);
  EXPECT_EQ(a.mean_delay(), b.mean_delay());
  EXPECT_EQ(a.delay_p99(), b.delay_p99());
}

/// The paper scenario's counts re-issued as annotated batches: per-batch
/// value, decay rate and (half the time) a deadline, deterministic in t.
std::shared_ptr<const ArrivalProcess> valued_paper_arrivals(const PaperScenario& s,
                                                            std::int64_t horizon) {
  std::vector<std::vector<ArrivalBatch>> slots(static_cast<std::size_t>(horizon));
  std::vector<std::int64_t> counts;
  const Rng root(0xBA7C4ULL);
  for (std::int64_t t = 0; t < horizon; ++t) {
    s.arrivals->arrivals_into(t, counts);
    Rng r = root.fork(static_cast<std::uint64_t>(t));
    for (std::size_t j = 0; j < counts.size(); ++j) {
      if (counts[j] <= 0) continue;
      ArrivalBatch b;
      b.type = j;
      b.count = counts[j];
      b.value = r.uniform(0.5, 3.0) * s.config.job_types[j].work;
      b.decay_rate = r.uniform(0.0, 0.2);
      b.deadline = r.bernoulli(0.5) ? r.uniform_int(2, 10) : kNoDeadline;
      slots[static_cast<std::size_t>(t)].push_back(b);
    }
  }
  return std::make_shared<ValuedTableArrivals>(std::move(slots), s.config.job_types.size());
}

// Batch run() is a driver over step(in): the same slots pushed by hand into
// an engine that holds no price or arrival model replay it bitwise — every
// metric series and every inspected SlotRecord — at beta = 0 (greedy) and
// beta > 0 (SPG), for count and valued (admission + deadline) arrivals.
TEST(Engine, PushedInputsReplayModelRunBitwise) {
  constexpr std::int64_t kSlots = 60;
  for (double beta : {0.0, 100.0}) {
    for (bool valued : {false, true}) {
      SCOPED_TRACE("beta " + std::to_string(beta) + (valued ? ", valued" : ", counts"));
      PaperScenario s = make_paper_scenario(/*seed=*/5);
      if (valued) {
        for (std::size_t j = 0; j < s.config.job_types.size(); ++j) {
          s.config.job_types[j].decay =
              j % 2 == 0 ? DecayKind::kExponential : DecayKind::kLinear;
        }
      }
      auto config = std::make_shared<const ClusterConfig>(s.config);
      auto arrivals = valued ? valued_paper_arrivals(s, kSlots) : s.arrivals;
      auto grefar = [&] {
        return std::make_shared<GreFarScheduler>(config, paper_grefar_params(7.5, beta));
      };

      SimulationEngine model_run(config, s.prices, s.availability, arrivals, grefar());
      SimulationEngine pushed(config, nullptr, s.availability, nullptr, grefar());
      auto model_rec = std::make_shared<BitRecorder>();
      auto pushed_rec = std::make_shared<BitRecorder>();
      model_run.set_inspector(model_rec);
      pushed.set_inspector(pushed_rec);
      if (valued) {
        model_run.set_admission_policy(std::make_shared<ThresholdAdmission>(1.5));
        pushed.set_admission_policy(std::make_shared<ThresholdAdmission>(1.5));
      }

      model_run.run(kSlots);
      SlotInput in;
      in.valued = valued;
      for (std::int64_t t = 0; t < kSlots; ++t) {
        in.slot = t;
        in.prices.resize(config->num_data_centers());
        for (std::size_t i = 0; i < in.prices.size(); ++i) in.prices[i] = s.prices->price(i, t);
        if (valued) {
          arrivals->valued_arrivals_into(t, in.batches);
        } else {
          arrivals->arrivals_into(t, in.arrivals);
        }
        pushed.step(in);
      }

      if (valued) {
        // The valued leg must reach the admission and deadline stages.
        EXPECT_GT(model_run.metrics().rejected_jobs.sum(), 0.0);
        EXPECT_GT(model_run.metrics().abandoned_jobs.sum(), 0.0);
      }
      EXPECT_EQ(pushed.slot(), kSlots);
      expect_metrics_bitwise(pushed.metrics(), model_run.metrics());
      ASSERT_EQ(pushed_rec->records.size(), model_rec->records.size());
      for (std::size_t t = 0; t < model_rec->records.size(); ++t) {
        EXPECT_EQ(pushed_rec->records[t], model_rec->records[t]) << "slot " << t;
      }
    }
  }
}

/// Runs `fn` and returns the ContractViolation message it throws.
std::string contract_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ContractViolation& e) {
    return e.what();
  }
  ADD_FAILURE() << "no ContractViolation thrown";
  return {};
}

std::unique_ptr<SimulationEngine> make_pushed_engine() {
  ClusterConfig config = simple_config();
  auto avail = std::make_shared<FullAvailability>(config.data_centers);
  return std::make_unique<SimulationEngine>(std::move(config), nullptr, avail, nullptr,
                                            std::make_shared<LambdaScheduler>(idle_action));
}

SlotInput counts_input(std::int64_t slot) {
  SlotInput in;
  in.slot = slot;
  in.prices = {0.5, 0.5};
  in.arrivals = {2};
  return in;
}

TEST(Engine, PushedInputForAnotherSlotIsRejected) {
  auto engine = make_pushed_engine();
  engine->step(counts_input(0));
  const std::string ahead = contract_message([&] { engine->step(counts_input(2)); });
  EXPECT_NE(ahead.find("SlotInput for slot 2 pushed at engine slot 1"), std::string::npos)
      << ahead;
  const std::string replay = contract_message([&] { engine->step(counts_input(0)); });
  EXPECT_NE(replay.find("SlotInput for slot 0 pushed at engine slot 1"), std::string::npos)
      << replay;
  EXPECT_EQ(engine->slot(), 1);
  EXPECT_DOUBLE_EQ(engine->central_queue_length(0), 2.0);
}

TEST(Engine, PushedInputOfWrongWidthIsRejected) {
  auto engine = make_pushed_engine();
  SlotInput wide_prices = counts_input(0);
  wide_prices.prices.push_back(0.5);
  const std::string prices = contract_message([&] { engine->step(wide_prices); });
  EXPECT_NE(prices.find("SlotInput has 3 prices, cluster has 2 DCs"), std::string::npos)
      << prices;
  SlotInput short_counts = counts_input(0);
  short_counts.arrivals.clear();
  const std::string counts = contract_message([&] { engine->step(short_counts); });
  EXPECT_NE(counts.find("SlotInput has 0 arrival counts, cluster has 1 job types"),
            std::string::npos)
      << counts;
  EXPECT_EQ(engine->slot(), 0);
}

TEST(Engine, NegativePushedCountIsRejected) {
  auto engine = make_pushed_engine();
  SlotInput in = counts_input(0);
  in.arrivals = {-3};
  const std::string message = contract_message([&] { engine->step(in); });
  EXPECT_NE(message.find("negative arrival count -3"), std::string::npos) << message;
}

TEST(Engine, ModelStepWithoutModelsIsRejected) {
  auto engine = make_pushed_engine();
  EXPECT_THROW(engine->step(), ContractViolation);
  EXPECT_THROW((void)engine->observe(), ContractViolation);
  engine->step(counts_input(0));  // the pushed entry still works
  EXPECT_EQ(engine->slot(), 1);
}

}  // namespace
}  // namespace grefar

// Engine-level value/deadline/admission semantics (the PR-9 job-model
// extension): deadline expiry ahead of observation, decayed value
// realization on completion, admission accounting, and the sentinel
// resolution of per-batch trace annotations — all under the throw-mode
// InvariantAuditor so the value ledger and deadline-feasibility invariants
// (invariant G) are machine-checked on every slot.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "check/invariant_auditor.h"
#include "core/admission.h"
#include "price/price_model.h"
#include "sim/engine.h"
#include "util/check.h"

namespace grefar {
namespace {

class LambdaScheduler final : public Scheduler {
 public:
  using Fn = std::function<SlotAction(const SlotObservation&)>;
  explicit LambdaScheduler(Fn fn) : fn_(std::move(fn)) {}
  SlotAction decide(const SlotObservation& obs) override { return fn_(obs); }
  std::string name() const override { return "lambda"; }

 private:
  Fn fn_;
};

SlotAction idle_action(const SlotObservation& obs) {
  SlotAction a;
  a.route = MatrixD(obs.dc_queue.rows(), obs.dc_queue.cols());
  a.process = MatrixD(obs.dc_queue.rows(), obs.dc_queue.cols());
  return a;
}

SlotAction eager_action(const SlotObservation& obs) {
  // Route whatever is queued to DC 0 and ask for ample service; the engine
  // clamps both to the queue / capacity.
  SlotAction a = idle_action(obs);
  for (std::size_t j = 0; j < obs.dc_queue.cols(); ++j) {
    a.route(0, j) = obs.central_queue[j];
    a.process(0, j) = 100.0;
  }
  return a;
}

ClusterConfig valued_config(DecayKind decay, double decay_rate,
                            std::int64_t deadline, double value = 2.0) {
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc1", {10}}, {"dc2", {10}}};
  c.accounts = {{"acct", 1.0}};
  JobType jt;
  jt.name = "job";
  jt.work = 1.0;
  jt.eligible_dcs = {0, 1};
  jt.account = 0;
  jt.value = value;
  jt.decay = decay;
  jt.decay_rate = decay_rate;
  jt.deadline = deadline;
  c.job_types = {jt};
  return c;
}

std::unique_ptr<SimulationEngine> make_engine(
    LambdaScheduler::Fn fn, ClusterConfig config,
    std::shared_ptr<const ArrivalProcess> arrivals,
    std::shared_ptr<AdmissionPolicy> admission = nullptr) {
  auto prices = std::make_shared<ConstantPriceModel>(
      std::vector<double>(config.num_data_centers(), 0.5));
  auto avail = std::make_shared<FullAvailability>(config.data_centers);
  auto sched = std::make_shared<LambdaScheduler>(std::move(fn));
  auto engine = std::make_unique<SimulationEngine>(
      config, prices, avail, std::move(arrivals), sched);
  if (admission != nullptr) engine->set_admission_policy(std::move(admission));
  InvariantAuditorOptions opts;
  opts.throw_on_violation = true;
  engine->set_inspector(std::make_shared<InvariantAuditor>(config, opts));
  return engine;
}

TEST(DeadlineEngine, IdleRunAbandonsExpiredJobs) {
  // Deadline 2: a job arriving during slot t may complete through slot t+2
  // and is abandoned at the start of slot t+3. Idle scheduler: every job
  // expires, none is served, and the audited value ledger still balances.
  auto engine = make_engine(idle_action,
                            valued_config(DecayKind::kNone, 0.0, /*deadline=*/2),
                            std::make_shared<ConstantArrivals>(
                                std::vector<std::int64_t>{2}));
  engine->run(6);
  const SimMetrics& m = engine->metrics();
  // Slots 3, 4, 5 each abandon the 2 jobs admitted three slots earlier.
  EXPECT_DOUBLE_EQ(m.abandoned_jobs.sum(), 6.0);
  EXPECT_DOUBLE_EQ(m.abandoned_work.sum(), 6.0);
  EXPECT_DOUBLE_EQ(m.total_abandoned_value(), 12.0);  // base value 2 each
  EXPECT_DOUBLE_EQ(m.total_realized_value(), 0.0);
  // 12 admitted - 6 abandoned still queued.
  EXPECT_DOUBLE_EQ(engine->central_queue_length(0), 6.0);
}

TEST(DeadlineEngine, CompletionsRealizeDecayedValue) {
  // Linear decay 0.1/slot, value 2: jobs arrive during slot t, are routed
  // and fully served during slot t+1 (delay 1) -> factor 0.9, realized 1.8.
  auto engine = make_engine(
      eager_action, valued_config(DecayKind::kLinear, 0.1, kNoDeadline),
      std::make_shared<ConstantArrivals>(std::vector<std::int64_t>{2}));
  engine->run(4);
  const SimMetrics& m = engine->metrics();
  // Arrivals of slots 0..2 complete at slots 1..3: 6 completions.
  EXPECT_NEAR(m.total_realized_value(), 6 * 1.8, 1e-9);
  EXPECT_NEAR(m.decay_loss.sum(), 6 * 0.2, 1e-9);
  EXPECT_DOUBLE_EQ(m.abandoned_jobs.sum(), 0.0);
}

TEST(DeadlineEngine, ServedWithinDeadlineNothingAbandons) {
  auto engine = make_engine(
      eager_action, valued_config(DecayKind::kExponential, 0.5, /*deadline=*/1),
      std::make_shared<ConstantArrivals>(std::vector<std::int64_t>{2}));
  engine->run(5);  // audited: no deadline violations, ledger balances
  const SimMetrics& m = engine->metrics();
  EXPECT_DOUBLE_EQ(m.abandoned_jobs.sum(), 0.0);
  // Every completion at delay 1: value 2 * exp(-0.5).
  EXPECT_NEAR(m.total_realized_value(), 8 * 2 * std::exp(-0.5), 1e-9);
}

TEST(DeadlineEngine, AdmissionPolicyRejectsAtTheDoor) {
  // Type value density = 2.0 / 1.0; theta = 3 rejects every batch. Rejected
  // work must never enter any queue (audited).
  auto engine = make_engine(
      idle_action, valued_config(DecayKind::kNone, 0.0, kNoDeadline),
      std::make_shared<ConstantArrivals>(std::vector<std::int64_t>{3}),
      std::make_shared<ThresholdAdmission>(3.0));
  engine->run(4);
  const SimMetrics& m = engine->metrics();
  EXPECT_DOUBLE_EQ(m.offered_jobs.sum(), 12.0);
  EXPECT_DOUBLE_EQ(m.arrived_jobs.sum(), 0.0);
  EXPECT_DOUBLE_EQ(m.rejected_jobs.sum(), 12.0);
  EXPECT_DOUBLE_EQ(m.total_rejected_value(), 24.0);
  EXPECT_DOUBLE_EQ(engine->central_queue_length(0), 0.0);
}

TEST(DeadlineEngine, BatchAnnotationsOverrideTypeDefaults) {
  // Two batches per slot: one defers to the type (value 2), one overrides
  // value and deadline. A density threshold of 1.5 then splits them.
  std::vector<std::vector<ArrivalBatch>> slots(1);
  ArrivalBatch deferred;
  deferred.type = 0;
  deferred.count = 1;  // resolved value 2 -> density 2: admitted
  ArrivalBatch overridden;
  overridden.type = 0;
  overridden.count = 2;
  overridden.value = 1.0;  // density 1: rejected
  overridden.deadline = 3;
  slots[0] = {deferred, overridden};
  auto engine = make_engine(
      eager_action, valued_config(DecayKind::kNone, 0.0, kNoDeadline),
      std::make_shared<ValuedTableArrivals>(std::move(slots), 1),
      std::make_shared<ThresholdAdmission>(1.5));
  engine->run(3);  // the 1-slot table wraps: same batches every slot
  const SimMetrics& m = engine->metrics();
  EXPECT_DOUBLE_EQ(m.offered_jobs.sum(), 9.0);
  EXPECT_DOUBLE_EQ(m.arrived_jobs.sum(), 3.0);
  EXPECT_DOUBLE_EQ(m.rejected_jobs.sum(), 6.0);
  EXPECT_DOUBLE_EQ(m.total_rejected_value(), 6.0);   // 6 jobs x value 1
  EXPECT_DOUBLE_EQ(m.admitted_value.sum(), 6.0);     // 3 jobs x value 2
}

TEST(DeadlineEngine, MalformedBatchAnnotationsAreContractViolations) {
  std::vector<std::vector<ArrivalBatch>> slots(1);
  ArrivalBatch bad;
  bad.type = 0;
  bad.count = 1;
  bad.value = -1.0;
  slots[0] = {bad};
  auto engine = make_engine(
      idle_action, valued_config(DecayKind::kNone, 0.0, kNoDeadline),
      std::make_shared<ValuedTableArrivals>(std::move(slots), 1));
  EXPECT_THROW(engine->step(), ContractViolation);

  std::vector<std::vector<ArrivalBatch>> slots2(1);
  ArrivalBatch bad_deadline;
  bad_deadline.type = 0;
  bad_deadline.count = 1;
  bad_deadline.deadline = -7;  // neither kNoDeadline nor >= 0
  slots2[0] = {bad_deadline};
  auto engine2 = make_engine(
      idle_action, valued_config(DecayKind::kNone, 0.0, kNoDeadline),
      std::make_shared<ValuedTableArrivals>(std::move(slots2), 1));
  EXPECT_THROW(engine2->step(), ContractViolation);
}

}  // namespace
}  // namespace grefar

#include "check/invariant_auditor.h"

#include <gtest/gtest.h>

#include <memory>

#include "baselines/baselines.h"
#include "core/grefar.h"
#include "scenario/paper_scenario.h"
#include "sim/engine.h"
#include "support/fixtures.h"
#include "util/check.h"

namespace grefar {
namespace {

// -- end-to-end: the auditor must run clean over correct schedulers ----------

TEST(InvariantAuditor, CleanOverGreFarOnSmallScenario) {
  auto scenario = make_small_scenario(7);
  auto engine = make_scenario_engine(
      scenario,
      std::make_shared<GreFarScheduler>(scenario.config, paper_grefar_params(7.5, 0.0)),
      AuditMode::kRecord);
  engine->run(300);
  const auto* auditor = dynamic_cast<const InvariantAuditor*>(engine->inspector());
  ASSERT_NE(auditor, nullptr);
  EXPECT_EQ(auditor->slots_audited(), 300);
  EXPECT_TRUE(auditor->ok()) << auditor->report();
  EXPECT_NE(auditor->report().find("clean"), std::string::npos);
}

TEST(InvariantAuditor, CleanOverGreFarWithFairnessOnPaperScenario) {
  auto scenario = make_paper_scenario(11);
  auto engine = make_scenario_engine(
      scenario,
      std::make_shared<GreFarScheduler>(scenario.config, paper_grefar_params(7.5, 100.0)),
      AuditMode::kRecord);
  engine->run(150);
  const auto* auditor = dynamic_cast<const InvariantAuditor*>(engine->inspector());
  ASSERT_NE(auditor, nullptr);
  EXPECT_TRUE(auditor->ok()) << auditor->report();
}

TEST(InvariantAuditor, CleanOverBaselines) {
  auto scenario = make_small_scenario(13);
  auto engine = make_scenario_engine(
      scenario, std::make_shared<AlwaysScheduler>(scenario.config), AuditMode::kRecord);
  engine->run(200);
  const auto* auditor = dynamic_cast<const InvariantAuditor*>(engine->inspector());
  ASSERT_NE(auditor, nullptr);
  EXPECT_TRUE(auditor->ok()) << auditor->report();
}

// -- unit: hand-built records with deliberate violations ---------------------

/// A 1-DC / 1-type / 1-account world where records are easy to fabricate.
ClusterConfig tiny_config() {
  ClusterConfig c;
  c.server_types = {{"srv", 1.0, 1.0}};
  c.data_centers = {{"dc", {10}}};
  c.accounts = {{"acct", 1.0}};
  c.job_types = {{"job", 2.0, {0}, 0}};
  return c;
}

/// Owns every buffer a SlotRecord points into; starts from a slot that obeys
/// all invariants (route 1 job, serve 2 work units = 1 job, 1 arrival).
struct RecordFixture {
  SlotObservation obs;
  SlotAction action;
  MatrixD routed{1, 1};
  MatrixD served{1, 1};
  std::vector<double> dc_capacity{10.0};
  std::vector<double> dc_energy{0.0};
  std::vector<double> account_work{2.0};
  std::vector<std::int64_t> arrivals{1};
  std::vector<double> central_after;
  MatrixD dc_after{1, 1};
  double fairness = 0.0;

  RecordFixture() {
    obs.slot = 0;
    obs.prices = {0.5};
    obs.availability = Matrix<std::int64_t>(1, 1);
    obs.availability(0, 0) = 10;
    obs.central_queue = {3.0};
    obs.dc_queue = MatrixD(1, 1);
    obs.dc_queue(0, 0) = 2.0;
    action.route = MatrixD(1, 1);
    action.process = MatrixD(1, 1);
    action.route(0, 0) = 1.0;
    action.process(0, 0) = 1.0;
    routed(0, 0) = 1.0;
    served(0, 0) = 2.0;  // one job's worth (d = 2)
    // energy: curve fills the single type, energy_per_work = 1, flat tariff.
    dc_energy[0] = 0.5 * 2.0;
    central_after = {3.0};        // max(3 - 1, 0) + 1
    dc_after(0, 0) = 2.0;         // max(2 + 1 - 2/2, 0)
    // fairness: r = 2, R = 10, gamma = 1 -> -(0.2 - 1)^2
    fairness = -(2.0 / 10.0 - 1.0) * (2.0 / 10.0 - 1.0);
  }

  SlotRecord record() const {
    SlotRecord r;
    r.slot = 0;
    r.obs = &obs;
    r.action = &action;
    r.routed = &routed;
    r.served_work = &served;
    r.dc_capacity = &dc_capacity;
    r.dc_energy_cost = &dc_energy;
    r.account_work = &account_work;
    r.fairness = fairness;
    r.arrivals = &arrivals;
    r.central_after = &central_after;
    r.dc_after = &dc_after;
    return r;
  }
};

TEST(InvariantAuditor, AcceptsAConsistentRecord) {
  InvariantAuditor auditor(tiny_config());
  RecordFixture fx;
  auditor.inspect(fx.record());
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST(InvariantAuditor, CatchesOverRouting) {
  InvariantAuditor auditor(tiny_config());
  RecordFixture fx;
  fx.action.route(0, 0) = 5.0;
  fx.routed(0, 0) = 5.0;  // central queue only holds 3
  auditor.inspect(fx.record());
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].kind, InvariantKind::kRoutingBound);
  EXPECT_NE(auditor.violations()[0].to_string().find("central queue"),
            std::string::npos);
}

TEST(InvariantAuditor, CatchesCapacityChainViolation) {
  InvariantAuditor auditor(tiny_config());
  RecordFixture fx;
  fx.served(0, 0) = 25.0;  // capacity is 10 servers x speed 1
  auditor.inspect(fx.record());
  ASSERT_FALSE(auditor.ok());
  bool found = false;
  for (const auto& v : auditor.violations()) {
    if (v.kind == InvariantKind::kCapacityChain) {
      found = true;
      EXPECT_EQ(v.dc, 0u);
      EXPECT_NEAR(v.observed, 25.0, 1e-9);
      EXPECT_NEAR(v.bound, 10.0, 1e-9);
    }
  }
  EXPECT_TRUE(found) << auditor.report();
}

TEST(InvariantAuditor, CatchesQueueRecurrenceDrift) {
  InvariantAuditor auditor(tiny_config());
  RecordFixture fx;
  fx.central_after[0] = 2.5;  // should be exactly 3.0
  auditor.inspect(fx.record());
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].kind, InvariantKind::kQueueRecurrence);
}

TEST(InvariantAuditor, CatchesNegativeQueueAndEligibility) {
  auto config = tiny_config();
  config.data_centers.push_back({"dc2", {5}});
  config.job_types[0].eligible_dcs = {0};  // DC 1 is ineligible
  InvariantAuditor auditor(config);

  // Build a 2-DC record with work on the ineligible DC and a negative queue.
  RecordFixture fx;
  fx.obs.prices = {0.5, 0.5};
  fx.obs.availability = Matrix<std::int64_t>(2, 1);
  fx.obs.availability(0, 0) = 10;
  fx.obs.availability(1, 0) = 5;
  fx.obs.dc_queue = MatrixD(2, 1);
  fx.obs.dc_queue(0, 0) = 2.0;
  fx.action.route = MatrixD(2, 1);
  fx.action.process = MatrixD(2, 1);
  fx.action.process(1, 0) = 1.0;  // ineligible ask
  fx.routed = MatrixD(2, 1);
  fx.served = MatrixD(2, 1);
  fx.dc_capacity = {10.0, 5.0};
  fx.dc_energy = {0.0, 0.0};
  fx.account_work = {0.0};
  fx.arrivals = {0};
  fx.central_after = {-1.0};  // impossible
  fx.dc_after = MatrixD(2, 1);
  fx.dc_after(0, 0) = 2.0;
  fx.fairness = -1.0;  // r=0, R=15, gamma=1
  auditor.inspect(fx.record());
  ASSERT_FALSE(auditor.ok());
  bool eligibility = false, negative = false;
  for (const auto& v : auditor.violations()) {
    eligibility |= v.kind == InvariantKind::kEligibility;
    negative |= v.kind == InvariantKind::kNegativeQueue;
  }
  EXPECT_TRUE(eligibility) << auditor.report();
  EXPECT_TRUE(negative) << auditor.report();
}

TEST(InvariantAuditor, CatchesEnergyAndConservationDrift) {
  InvariantAuditor auditor(tiny_config());
  RecordFixture fx;
  fx.dc_energy[0] = 0.01;     // billed too little for 2 units of work
  fx.account_work[0] = 1.0;   // does not sum to the 2 units served
  auditor.inspect(fx.record());
  ASSERT_FALSE(auditor.ok());
  bool energy = false, conservation = false;
  for (const auto& v : auditor.violations()) {
    energy |= v.kind == InvariantKind::kEnergyAccounting;
    conservation |= v.kind == InvariantKind::kWorkConservation;
  }
  EXPECT_TRUE(energy) << auditor.report();
  EXPECT_TRUE(conservation) << auditor.report();
}

TEST(InvariantAuditor, ThrowModeAbortsWithDescriptiveMessage) {
  InvariantAuditorOptions options;
  options.throw_on_violation = true;
  InvariantAuditor auditor(tiny_config(), options);
  RecordFixture fx;
  fx.central_after[0] = 99.0;
  try {
    auditor.inspect(fx.record());
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& violation) {
    EXPECT_NE(std::string(violation.what()).find("queue-recurrence"),
              std::string::npos)
        << violation.what();
  }
}

TEST(InvariantAuditor, StrictModeCatchesOverAsk) {
  // The engine clamps an oversized ask, so only the strict contract checks
  // can see it: a scheduler that promises clamped decisions but asks for
  // more processing than is queued must be flagged.
  InvariantAuditorOptions options;
  options.expect_queue_bounded_ask = true;
  options.r_max = 2.0;
  InvariantAuditor auditor(tiny_config(), options);
  RecordFixture fx;
  fx.action.route(0, 0) = 3.0;    // > r_max = 2 (still within Q = 3)
  fx.action.process(0, 0) = 50.0;  // far beyond q + r = 3
  fx.routed(0, 0) = 3.0;
  fx.central_after[0] = 1.0;  // max(3 - 3, 0) + 1
  fx.dc_after(0, 0) = 4.0;    // max(2 + 3 - 1, 0)
  auditor.inspect(fx.record());
  ASSERT_FALSE(auditor.ok());
  std::size_t contract = 0;
  for (const auto& v : auditor.violations()) {
    if (v.kind == InvariantKind::kSchedulerContract) ++contract;
  }
  EXPECT_EQ(contract, 2u) << auditor.report();
}

TEST(InvariantAuditor, ResetClearsLedgerAndViolations) {
  InvariantAuditor auditor(tiny_config());
  RecordFixture fx;
  fx.central_after[0] = 99.0;
  auditor.inspect(fx.record());
  ASSERT_FALSE(auditor.ok());
  auditor.reset();
  EXPECT_TRUE(auditor.ok());
  EXPECT_EQ(auditor.slots_audited(), 0);
  auditor.inspect(RecordFixture().record());
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

// -- G. admission / deadline / value accounting (the PR-9 invariants) --------

TEST(InvariantAuditor, CatchesAdmittedExceedingOffered) {
  // Rejected work must never enter a queue: an arrivals vector larger than
  // the offered vector means the engine queued jobs the policy never saw.
  InvariantAuditor auditor(tiny_config());
  RecordFixture fx;
  std::vector<std::int64_t> offered{0};  // arrivals stay {1}
  SlotRecord rec = fx.record();
  rec.offered = &offered;
  rec.admission_active = true;
  auditor.inspect(rec);
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].kind, InvariantKind::kAdmissionAccounting);
  EXPECT_NE(auditor.violations()[0].to_string().find(
                "admitted arrivals exceed offered arrivals"),
            std::string::npos);
}

TEST(InvariantAuditor, CatchesMisshapenOrNegativeOfferedVector) {
  InvariantAuditor auditor(tiny_config());
  RecordFixture fx;
  std::vector<std::int64_t> offered{1, 1};  // config has one job type
  SlotRecord rec = fx.record();
  rec.offered = &offered;
  auditor.inspect(rec);
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].kind, InvariantKind::kAdmissionAccounting);

  InvariantAuditor auditor2(tiny_config());
  std::vector<std::int64_t> negative{-1};
  rec.offered = &negative;
  auditor2.inspect(rec);
  ASSERT_FALSE(auditor2.ok());
  EXPECT_EQ(auditor2.violations()[0].kind,
            InvariantKind::kAdmissionAccounting);
  EXPECT_NE(auditor2.violations()[0].to_string().find(
                "negative offered arrival count"),
            std::string::npos);
}

TEST(InvariantAuditor, CatchesDeadlineViolations) {
  // Invariant G: a job past its deadline must be abandoned at the start of
  // the slot, never processed — any nonzero count is a violation.
  InvariantAuditor auditor(tiny_config());
  RecordFixture fx;
  SlotRecord rec = fx.record();
  rec.deadline_violations = 2;
  auditor.inspect(rec);
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].kind,
            InvariantKind::kDeadlineFeasibility);
  EXPECT_NE(auditor.violations()[0].to_string().find(
                "completed after their deadline"),
            std::string::npos);
}

TEST(InvariantAuditor, CatchesValueLedgerDrift) {
  // Slot 0 initializes the ledger; slot 1 claims admitted value that never
  // shows up queued, realized, or abandoned — conservation must flag it.
  InvariantAuditor auditor(tiny_config());
  RecordFixture fx;
  auditor.inspect(fx.record());
  ASSERT_TRUE(auditor.ok()) << auditor.report();
  SlotRecord rec = fx.record();
  rec.admitted_value = 5.0;  // queued_value_after stays 0: 5 units vanished
  auditor.inspect(rec);
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].kind, InvariantKind::kValueConservation);
  EXPECT_NE(auditor.violations()[0].to_string().find(
                "queued value != previous + admitted - completed - abandoned"),
            std::string::npos);
}

TEST(InvariantAuditor, CatchesNonFiniteAndNegativeValueScalars) {
  InvariantAuditor auditor(tiny_config());
  RecordFixture fx;
  SlotRecord rec = fx.record();
  rec.realized_value = std::numeric_limits<double>::quiet_NaN();
  auditor.inspect(rec);
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].kind, InvariantKind::kValueConservation);

  InvariantAuditor auditor2(tiny_config());
  SlotRecord rec2 = fx.record();
  rec2.abandoned_value = -1.0;
  auditor2.inspect(rec2);
  ASSERT_FALSE(auditor2.ok());
  EXPECT_EQ(auditor2.violations()[0].kind,
            InvariantKind::kValueConservation);
  EXPECT_NE(auditor2.violations()[0].to_string().find(
                "negative value/abandonment scalar"),
            std::string::npos);
}

TEST(InvariantAuditor, MaxViolationsCapsRecordingNotCounting) {
  InvariantAuditorOptions options;
  options.max_violations = 2;
  InvariantAuditor auditor(tiny_config(), options);
  RecordFixture fx;
  fx.central_after[0] = 99.0;
  for (int t = 0; t < 5; ++t) auditor.inspect(fx.record());
  EXPECT_EQ(auditor.violations().size(), 2u);
  EXPECT_GE(auditor.total_violations(), 5u);
  EXPECT_NE(auditor.report().find("more"), std::string::npos);
}

}  // namespace
}  // namespace grefar

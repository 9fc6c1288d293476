// The overloaded valued scenario end-to-end: audited (throw-mode) runs for
// every admission policy, the realized-value ordering the ablation bench
// gates on, and bit-identical replay — the PR-9 acceptance criteria in
// test form.
#include "scenario/admission_scenario.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/grefar.h"
#include "sim/engine.h"

namespace grefar {
namespace {

constexpr std::int64_t kHorizon = 120;

std::unique_ptr<SimulationEngine> run_policy(std::uint64_t seed,
                                             AdmissionPolicyKind kind) {
  PaperScenario s = make_admission_scenario(seed, kind);
  auto scheduler =
      std::make_shared<GreFarScheduler>(s.config, paper_grefar_params(7.5, 10.0));
  // kThrow: every slot is machine-checked, including the new admission
  // accounting, deadline-feasibility and value-conservation invariants.
  return run_scenario(s, std::move(scheduler), kHorizon, AuditMode::kThrow);
}

TEST(AdmissionScenario, ScenarioShape) {
  PaperScenario s = make_admission_scenario(7);
  EXPECT_EQ(s.config.num_data_centers(), 2u);
  EXPECT_EQ(s.config.num_job_types(), 4u);
  EXPECT_TRUE(s.arrivals->has_valued_arrivals());
  EXPECT_EQ(s.admission, nullptr);
  // Every type decays and expires — the overload has to cost value.
  for (const auto& jt : s.config.job_types) {
    EXPECT_NE(jt.decay, DecayKind::kNone);
    EXPECT_NE(jt.deadline, kNoDeadline);
  }
  PaperScenario with_policy =
      make_admission_scenario(7, AdmissionPolicyKind::kThreshold);
  ASSERT_NE(with_policy.admission, nullptr);
  EXPECT_EQ(with_policy.admission->name(), "threshold");
}

TEST(AdmissionScenario, ArrivalTableIsDeterministicAndOverloaded) {
  PaperScenario a = make_admission_scenario(3);
  PaperScenario b = make_admission_scenario(3);
  std::vector<ArrivalBatch> batches_a;
  std::vector<ArrivalBatch> batches_b;
  double offered_work = 0.0;
  for (std::int64_t t = 0; t < kAdmissionScenarioSlots; ++t) {
    a.arrivals->valued_arrivals_into(t, batches_a);
    b.arrivals->valued_arrivals_into(t, batches_b);
    ASSERT_EQ(batches_a.size(), batches_b.size()) << "slot " << t;
    for (std::size_t k = 0; k < batches_a.size(); ++k) {
      EXPECT_EQ(batches_a[k].type, batches_b[k].type);
      EXPECT_EQ(batches_a[k].count, batches_b[k].count);
      EXPECT_EQ(batches_a[k].value, batches_b[k].value);
      EXPECT_EQ(batches_a[k].deadline, batches_b[k].deadline);
      offered_work += static_cast<double>(batches_a[k].count) *
                      a.config.job_types[batches_a[k].type].work;
    }
  }
  // Mean offered work must clearly exceed the 22.5/slot installed capacity.
  const double mean_work =
      offered_work / static_cast<double>(kAdmissionScenarioSlots);
  EXPECT_GT(mean_work, 1.4 * 22.5);
}

TEST(AdmissionScenario, AuditedRunsAreCleanForEveryPolicy) {
  for (AdmissionPolicyKind kind :
       {AdmissionPolicyKind::kAdmitAll, AdmissionPolicyKind::kThreshold,
        AdmissionPolicyKind::kRandomized}) {
    auto engine = run_policy(20260807, kind);  // throws on any violation
    EXPECT_GT(engine->metrics().offered_jobs.sum(), 0.0);
  }
}

TEST(AdmissionScenario, ThresholdPoliciesBeatAdmitAllOnRealizedValue) {
  auto admit_all = run_policy(20260807, AdmissionPolicyKind::kAdmitAll);
  auto threshold = run_policy(20260807, AdmissionPolicyKind::kThreshold);
  auto randomized = run_policy(20260807, AdmissionPolicyKind::kRandomized);
  const double base = admit_all->metrics().total_realized_value();
  EXPECT_GT(threshold->metrics().total_realized_value(), base);
  EXPECT_GT(randomized->metrics().total_realized_value(), base);
  // Admit-all never rejects; the thresholds must actually reject something.
  EXPECT_DOUBLE_EQ(admit_all->metrics().rejected_jobs.sum(), 0.0);
  EXPECT_GT(threshold->metrics().rejected_jobs.sum(), 0.0);
  EXPECT_GT(randomized->metrics().rejected_jobs.sum(), 0.0);
}

TEST(AdmissionScenario, RunsReplayBitIdentically) {
  auto a = run_policy(11, AdmissionPolicyKind::kRandomized);
  auto b = run_policy(11, AdmissionPolicyKind::kRandomized);
  const SimMetrics& ma = a->metrics();
  const SimMetrics& mb = b->metrics();
  ASSERT_EQ(ma.slots(), mb.slots());
  for (std::size_t t = 0; t < ma.slots(); ++t) {
    EXPECT_EQ(ma.realized_value.values()[t], mb.realized_value.values()[t]);
    EXPECT_EQ(ma.abandoned_jobs.values()[t], mb.abandoned_jobs.values()[t]);
    EXPECT_EQ(ma.rejected_jobs.values()[t], mb.rejected_jobs.values()[t]);
    EXPECT_EQ(ma.energy_cost.values()[t], mb.energy_cost.values()[t]);
  }
}

}  // namespace
}  // namespace grefar

#include "sim/queue.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "util/check.h"

namespace grefar {
namespace {

Job make_job(std::uint64_t id, double remaining, std::int64_t arrival = 0,
             std::int64_t dc_entry = 0) {
  Job j;
  j.id = id;
  j.type = 0;
  j.arrival_slot = arrival;
  j.dc_entry_slot = dc_entry;
  j.remaining = remaining;
  return j;
}

void push(FifoJobQueue& q, const Job& job) { q.push_copies(job, 1); }

std::vector<Completion> serve(FifoJobQueue& q, double work, std::int64_t slot,
                              double* consumed,
                              double cap = std::numeric_limits<double>::infinity()) {
  std::vector<Completion> done;
  q.serve_into(work, slot, consumed, done, cap);
  return done;
}

TEST(FifoJobQueue, StartsEmpty) {
  FifoJobQueue q(2.0);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.job_count(), 0u);
  EXPECT_DOUBLE_EQ(q.length_jobs(), 0.0);
  EXPECT_DOUBLE_EQ(q.remaining_work(), 0.0);
}

TEST(FifoJobQueue, LengthTracksFractionalJobs) {
  FifoJobQueue q(2.0);
  push(q, make_job(1, 2.0));
  push(q, make_job(2, 2.0));
  EXPECT_DOUBLE_EQ(q.length_jobs(), 2.0);
  double consumed = 0.0;
  serve(q, 1.0, 0, &consumed);  // half a job
  EXPECT_DOUBLE_EQ(consumed, 1.0);
  EXPECT_DOUBLE_EQ(q.length_jobs(), 1.5);
  EXPECT_EQ(q.job_count(), 2u);  // partially-served head still present
}

TEST(FifoJobQueue, ServeCompletesInFifoOrder) {
  FifoJobQueue q(1.0);
  push(q, make_job(1, 1.0));
  push(q, make_job(2, 1.0));
  push(q, make_job(3, 1.0));
  double consumed = 0.0;
  auto completions = serve(q, 2.0, 5, &consumed);
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0].job.id, 1u);
  EXPECT_EQ(completions[1].job.id, 2u);
  EXPECT_EQ(completions[0].completion_slot, 5);
  EXPECT_DOUBLE_EQ(consumed, 2.0);
  EXPECT_EQ(q.job_count(), 1u);
}

TEST(FifoJobQueue, PartialServiceAccumulatesAcrossSlots) {
  FifoJobQueue q(3.0);
  push(q, make_job(1, 3.0, /*arrival=*/2, /*dc_entry=*/3));
  EXPECT_TRUE(serve(q, 1.0, 4, nullptr).empty());
  EXPECT_TRUE(serve(q, 1.0, 5, nullptr).empty());
  auto completions = serve(q, 1.0, 6, nullptr);
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].total_delay(), 4);  // 6 - 2
  EXPECT_EQ(completions[0].dc_delay(), 3);     // 6 - 3
}

TEST(FifoJobQueue, ServeMoreThanQueueDrainsEverything) {
  FifoJobQueue q(1.0);
  push(q, make_job(1, 1.0));
  double consumed = 0.0;
  auto completions = serve(q, 100.0, 0, &consumed);
  EXPECT_EQ(completions.size(), 1u);
  EXPECT_DOUBLE_EQ(consumed, 1.0);
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.remaining_work(), 0.0);
}

TEST(FifoJobQueue, ZeroServiceIsNoOp) {
  FifoJobQueue q(1.0);
  push(q, make_job(1, 1.0));
  EXPECT_TRUE(serve(q, 0.0, 0, nullptr).empty());
  EXPECT_DOUBLE_EQ(q.length_jobs(), 1.0);
}

TEST(FifoJobQueue, RejectsBadInputs) {
  EXPECT_THROW(FifoJobQueue(0.0), ContractViolation);
  EXPECT_THROW(FifoJobQueue(-1.0), ContractViolation);
  FifoJobQueue q(1.0);
  EXPECT_THROW(push(q, make_job(1, 0.0)), ContractViolation);
  EXPECT_THROW(serve(q, -1.0, 0, nullptr), ContractViolation);
}

TEST(FifoJobQueue, ClampedDynamicsMatchScalarUpdate) {
  // q(t+1) = max[q + r - h, 0] with r routed before service.
  FifoJobQueue q(1.0);
  double scalar_q = 0.0;
  std::uint64_t next_id = 1;
  const double arrivals[] = {3, 0, 2, 5, 0, 0, 1};
  const double service[] = {1, 1, 4, 2, 2, 2, 2};
  for (int t = 0; t < 7; ++t) {
    for (int n = 0; n < arrivals[t]; ++n) push(q, make_job(next_id++, 1.0, t, t));
    scalar_q = std::max(scalar_q + arrivals[t] - service[t], 0.0);
    serve(q, service[t], t, nullptr);
    EXPECT_NEAR(q.length_jobs(), scalar_q, 1e-9) << "slot " << t;
  }
}

TEST(FifoJobQueue, PerJobCapLimitsEachJob) {
  FifoJobQueue q(4.0);
  push(q, make_job(1, 4.0));
  push(q, make_job(2, 4.0));
  double consumed = 0.0;
  // Budget 6 but each job can take at most 1 this slot.
  auto completions = serve(q, 6.0, 0, &consumed, /*per_job_cap=*/1.0);
  EXPECT_TRUE(completions.empty());
  EXPECT_DOUBLE_EQ(consumed, 2.0);  // 1 to each job
  EXPECT_DOUBLE_EQ(q.remaining_work(), 6.0);
}

TEST(FifoJobQueue, CapLetsSmallLaterJobsFinishFirst) {
  FifoJobQueue q(1.0);
  push(q, make_job(1, 10.0));  // big head
  push(q, make_job(2, 0.5));   // small follower
  auto completions = serve(q, 5.0, 3, nullptr, /*per_job_cap=*/2.0);
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].job.id, 2u);
  EXPECT_EQ(q.job_count(), 1u);
  EXPECT_DOUBLE_EQ(q.remaining_work(), 8.0);  // head got its 2-unit cap
}

TEST(FifoJobQueue, InfiniteCapMatchesUncappedBehaviour) {
  FifoJobQueue a(1.0), b(1.0);
  for (int n = 0; n < 5; ++n) {
    push(a, make_job(n + 1, 1.0));
    push(b, make_job(n + 1, 1.0));
  }
  double used_a = 0.0, used_b = 0.0;
  auto ca = serve(a, 3.5, 0, &used_a);
  auto cb = serve(b, 3.5, 0, &used_b,
                    std::numeric_limits<double>::infinity());
  EXPECT_EQ(ca.size(), cb.size());
  EXPECT_DOUBLE_EQ(used_a, used_b);
  EXPECT_DOUBLE_EQ(a.remaining_work(), b.remaining_work());
}

TEST(FifoJobQueue, RejectsNonPositiveCap) {
  FifoJobQueue q(1.0);
  push(q, make_job(1, 1.0));
  EXPECT_THROW(serve(q, 1.0, 0, nullptr, 0.0), ContractViolation);
}

TEST(FifoJobQueue, CappedJobTakesMultipleSlots) {
  // One job of work 4 with cap 1: completes at slot 3 (slots 0..3).
  FifoJobQueue q(4.0);
  push(q, make_job(1, 4.0, /*arrival=*/0, /*dc_entry=*/0));
  for (int t = 0; t < 3; ++t) {
    EXPECT_TRUE(serve(q, 10.0, t, nullptr, 1.0).empty());
  }
  auto completions = serve(q, 10.0, 3, nullptr, 1.0);
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].total_delay(), 3);
}

TEST(FifoJobQueue, DelayAccountingForBatchArrival) {
  // Three unit jobs arrive at slot 0; serve one per slot from slot 1:
  // delays 1, 2, 3.
  FifoJobQueue q(1.0);
  for (int n = 0; n < 3; ++n) push(q, make_job(n + 1, 1.0, 0, 0));
  double total_delay = 0.0;
  for (int t = 1; t <= 3; ++t) {
    auto completions = serve(q, 1.0, t, nullptr);
    for (const auto& c : completions) total_delay += static_cast<double>(c.total_delay());
  }
  EXPECT_DOUBLE_EQ(total_delay, 6.0);
}

}  // namespace
}  // namespace grefar

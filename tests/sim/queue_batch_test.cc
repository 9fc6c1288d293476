// FifoJobQueue's batch moves against their one-job reference, bit for bit:
// push_copies against `count` push() calls, transfer_front against
// pop_front() + push() per job; and serve_into, which collects completions
// from the jobs it served only, against a whole-queue scan.
#include "sim/queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace grefar {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Values chosen so the running sums round: order matters bitwise.
Job valued_job(std::uint64_t id, double remaining, double value,
               std::int64_t deadline_slot = kNoDeadlineSlot) {
  Job j;
  j.id = id;
  j.type = 3;
  j.arrival_slot = 2;
  j.dc_entry_slot = 2;
  j.remaining = remaining;
  j.value = value;
  j.decay_rate = 0.25;
  j.deadline_slot = deadline_slot;
  return j;
}

/// Scalar state plus every queued job, drained from a copy in FIFO order.
void expect_same_queue(const FifoJobQueue& got, const FifoJobQueue& want) {
  EXPECT_EQ(bits(got.remaining_work()), bits(want.remaining_work()));
  EXPECT_EQ(bits(got.length_jobs()), bits(want.length_jobs()));
  EXPECT_EQ(bits(got.total_value()), bits(want.total_value()));
  ASSERT_EQ(got.job_count(), want.job_count());
  FifoJobQueue a = got, b = want;
  while (!b.empty()) {
    const Job x = a.pop_front(), y = b.pop_front();
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.type, y.type);
    EXPECT_EQ(x.arrival_slot, y.arrival_slot);
    EXPECT_EQ(x.dc_entry_slot, y.dc_entry_slot);
    EXPECT_EQ(bits(x.remaining), bits(y.remaining));
    EXPECT_EQ(bits(x.value), bits(y.value));
    EXPECT_EQ(bits(x.decay_rate), bits(y.decay_rate));
    EXPECT_EQ(x.deadline_slot, y.deadline_slot);
  }
}

/// Expiry afterwards sees the same min-deadline watermark and jobs.
void expect_same_expiry(FifoJobQueue got, FifoJobQueue want, std::int64_t slot) {
  std::vector<Job> got_out, want_out;
  got.expire_before(slot, got_out);
  want.expire_before(slot, want_out);
  ASSERT_EQ(got_out.size(), want_out.size());
  for (std::size_t k = 0; k < got_out.size(); ++k) {
    EXPECT_EQ(got_out[k].id, want_out[k].id);
  }
  expect_same_queue(got, want);
}

/// transfer_front(n) on (src, dst) against the per-job reference on copies.
void check_transfer(const FifoJobQueue& src, const FifoJobQueue& dst, std::int64_t n,
                    std::int64_t slot) {
  FifoJobQueue ref_src = src, ref_dst = dst;
  std::int64_t ref_moved = 0;
  for (; ref_moved < n && !ref_src.empty(); ++ref_moved) {
    Job job = ref_src.pop_front();
    job.dc_entry_slot = slot;
    ref_dst.push(job);
  }
  FifoJobQueue got_src = src, got_dst = dst;
  EXPECT_EQ(got_src.transfer_front(got_dst, n, slot), ref_moved);
  expect_same_queue(got_src, ref_src);
  expect_same_queue(got_dst, ref_dst);
  for (std::int64_t t : {slot, slot + 3, slot + 9}) {
    expect_same_expiry(got_src, ref_src, t);
    expect_same_expiry(got_dst, ref_dst, t);
  }
}

TEST(QueueBatch, PushCopiesMatchesPerJobPush) {
  for (std::int64_t count : {0, 1, 2, 7, 130}) {
    FifoJobQueue got(0.7), want(0.7);
    for (FifoJobQueue* q : {&got, &want}) q->push(valued_job(1, 0.7, 0.3, 12));
    const Job proto = valued_job(50, 0.7, 0.1, 6);
    got.push_copies(proto, count);
    for (std::int64_t k = 0; k < count; ++k) {
      Job job = proto;
      job.id = proto.id + static_cast<std::uint64_t>(k);
      want.push(job);
    }
    expect_same_queue(got, want);
    for (std::int64_t t : {5, 7, 13}) expect_same_expiry(got, want, t);
  }
}

TEST(QueueBatch, PushCopiesOfZeroSkipsTheFinishedJobCheck) {
  FifoJobQueue q(1.0);
  const Job finished = valued_job(1, 0.0, 1.0);
  q.push_copies(finished, 0);  // nothing enqueued, nothing to reject
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.push_copies(finished, 1), ContractViolation);
  EXPECT_THROW(q.push_copies(valued_job(1, 1.0, 1.0), -1), ContractViolation);
}

TEST(QueueBatch, TransferFromEmptyAndShortQueues) {
  FifoJobQueue empty(0.7), dst(0.7);
  dst.push(valued_job(90, 0.7, 0.2));
  check_transfer(empty, dst, 0, 4);
  check_transfer(empty, dst, 5, 4);

  FifoJobQueue short_src(0.7);
  for (std::uint64_t id = 1; id <= 3; ++id) short_src.push(valued_job(id, 0.7, 0.1 * id));
  for (std::int64_t n : {0, 1, 2, 3, 4, 100}) check_transfer(short_src, dst, n, 4);
  check_transfer(short_src, FifoJobQueue(0.7), 3, 4);  // into an empty queue
}

TEST(QueueBatch, TransferValuedJobsWithDeadlines) {
  // Mixed deadlines (some none), values that round, a partially served head
  // and enough jobs that the source compacts its popped prefix.
  FifoJobQueue src(0.7), dst(0.7);
  for (std::uint64_t id = 1; id <= 150; ++id) {
    const std::int64_t deadline =
        id % 3 == 0 ? kNoDeadlineSlot : 4 + static_cast<std::int64_t>(id % 7);
    src.push(valued_job(id, 0.7, 0.1 * static_cast<double>(id % 11), deadline));
  }
  double consumed = 0.0;
  src.serve(0.3, 3, &consumed);  // the head keeps 0.4 of its work
  dst.push(valued_job(500, 0.7, 0.9, 20));
  for (std::int64_t n : {1, 63, 64, 65, 100, 149, 150, 151}) {
    check_transfer(src, dst, n, 5);
  }
}

TEST(QueueBatch, RandomInterleavingStaysBitwiseEqual) {
  // Admission, routing, service and expiry in random order on the batch
  // queues and their per-job twins; every state must agree after each step.
  Rng rng(11);
  FifoJobQueue central(0.7), dc(0.7), ref_central(0.7), ref_dc(0.7);
  std::uint64_t next_id = 1;
  for (std::int64_t slot = 0; slot < 400; ++slot) {
    std::vector<Job> got_out, want_out;
    central.expire_before(slot, got_out);
    ref_central.expire_before(slot, want_out);
    dc.expire_before(slot, got_out);
    ref_dc.expire_before(slot, want_out);
    ASSERT_EQ(got_out.size(), want_out.size());

    const std::int64_t n = rng.uniform_int(0, 6);
    ASSERT_EQ(central.transfer_front(dc, n, slot), [&] {
      std::int64_t moved = 0;
      for (; moved < n && !ref_central.empty(); ++moved) {
        Job job = ref_central.pop_front();
        job.dc_entry_slot = slot;
        ref_dc.push(job);
      }
      return moved;
    }());

    const double work = rng.uniform(0.0, 3.0);
    double got_used = 0.0, want_used = 0.0;
    const auto got_done = dc.serve(work, slot, &got_used, 0.5);
    const auto want_done = ref_dc.serve(work, slot, &want_used, 0.5);
    ASSERT_EQ(bits(got_used), bits(want_used));
    ASSERT_EQ(got_done.size(), want_done.size());

    const std::int64_t count = rng.uniform_int(0, 5);
    const std::int64_t deadline =
        rng.bernoulli(0.5) ? kNoDeadlineSlot : slot + rng.uniform_int(0, 30);
    const Job proto = valued_job(next_id, 0.7, rng.uniform(0.0, 2.0), deadline);
    central.push_copies(proto, count);
    for (std::int64_t k = 0; k < count; ++k) {
      Job job = proto;
      job.id = next_id + static_cast<std::uint64_t>(k);
      ref_central.push(job);
    }
    next_id += static_cast<std::uint64_t>(count);

    expect_same_queue(central, ref_central);
    expect_same_queue(dc, ref_dc);
    if (testing::Test::HasFailure()) return;
  }
}

/// Fluid FIFO service as a whole-queue scan: every job is checked for
/// completion, served this slot or not.
struct ScanReference {
  std::vector<Job> jobs;
  double remaining_work = 0.0;
  double total_value = 0.0;

  void push(const Job& job) {
    remaining_work += job.remaining;
    total_value += job.value;
    jobs.push_back(job);
  }

  std::vector<Completion> serve(double work, std::int64_t slot, double* consumed,
                                double cap) {
    double budget = std::max(work, 0.0);
    double used = 0.0;
    for (std::size_t r = 0; r < jobs.size() && budget > 1e-12; ++r) {
      const double give = std::min({budget, cap, jobs[r].remaining});
      jobs[r].remaining -= give;
      remaining_work -= give;
      used += give;
      budget -= give;
    }
    std::vector<Completion> done;
    std::vector<Job> kept;
    for (const Job& job : jobs) {
      if (job.remaining <= kFinishedWork) {
        total_value -= job.value;
        done.push_back({job, slot});
        done.back().job.remaining = 0.0;
      } else {
        kept.push_back(job);
      }
    }
    jobs = kept;
    if (remaining_work < 0.0) remaining_work = 0.0;
    if (jobs.empty() || total_value < 0.0) total_value = 0.0;
    *consumed = used;
    return done;
  }
};

void expect_matches_reference(const FifoJobQueue& q, const ScanReference& ref) {
  EXPECT_EQ(bits(q.remaining_work()), bits(ref.remaining_work));
  EXPECT_EQ(bits(q.total_value()), bits(ref.total_value));
  ASSERT_EQ(q.job_count(), ref.jobs.size());
  FifoJobQueue copy = q;
  for (const Job& want : ref.jobs) {
    const Job got = copy.pop_front();
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(bits(got.remaining), bits(want.remaining));
  }
}

TEST(QueueBatch, ServeMatchesWholeQueueScan) {
  // Random batches, caps and budgets: collecting completions from the
  // served prefix finds exactly what a whole-queue scan finds.
  Rng rng(5);
  FifoJobQueue q(1.0);
  ScanReference ref;
  std::uint64_t next_id = 1;
  for (std::int64_t slot = 0; slot < 600; ++slot) {
    const std::int64_t count = rng.uniform_int(0, 4);
    const Job proto =
        valued_job(next_id, rng.uniform(0.1, 2.0), rng.uniform(0.0, 1.5));
    q.push_copies(proto, count);
    for (std::int64_t k = 0; k < count; ++k) {
      Job job = proto;
      job.id = next_id + static_cast<std::uint64_t>(k);
      ref.push(job);
    }
    next_id += static_cast<std::uint64_t>(count);

    const double work = rng.uniform(0.0, 5.0);
    const double cap = rng.bernoulli(0.5) ? rng.uniform(0.2, 1.0)
                                          : std::numeric_limits<double>::infinity();
    double got_used = 0.0, want_used = 0.0;
    const auto got = q.serve(work, slot, &got_used, cap);
    const auto want = ref.serve(work, slot, &want_used, cap);
    ASSERT_EQ(bits(got_used), bits(want_used));
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) ASSERT_EQ(got[k].job.id, want[k].job.id);
    expect_matches_reference(q, ref);
    if (testing::Test::HasFailure()) return;
  }
}

TEST(QueueBatch, RejectsJobsThatAreAlreadyFinished) {
  // A job at or below kFinishedWork would count as finished without any
  // service, which is what lets serve_into skip the jobs it did not serve.
  FifoJobQueue q(1.0);
  EXPECT_THROW(q.push(valued_job(1, kFinishedWork, 1.0)), ContractViolation);
  EXPECT_THROW(q.push_copies(valued_job(1, 1e-13, 1.0), 2), ContractViolation);
  EXPECT_TRUE(q.empty());
  q.push(valued_job(1, 2 * kFinishedWork, 1.0));
  EXPECT_EQ(q.job_count(), 1u);

  // So a job type that small is rejected with the config, not at admission.
  JobType tiny;
  tiny.name = "tiny";
  tiny.work = kFinishedWork;
  tiny.eligible_dcs = {0};
  EXPECT_THROW(validate_job_types({tiny}, 1, 1), ContractViolation);
  tiny.work = 2 * kFinishedWork;
  EXPECT_NO_THROW(validate_job_types({tiny}, 1, 1));
}

TEST(QueueBatch, TransferContractChecks) {
  FifoJobQueue q(1.0), other(1.0);
  q.push(valued_job(1, 1.0, 1.0));
  EXPECT_THROW(q.transfer_front(q, 1, 0), ContractViolation);
  EXPECT_THROW(q.transfer_front(other, -1, 0), ContractViolation);
  EXPECT_EQ(q.job_count(), 1u);
  EXPECT_TRUE(other.empty());
}

}  // namespace
}  // namespace grefar

// FifoJobQueue: fluid FIFO service with exact per-job delay accounting.
//
// The paper's queue dynamics (12)-(13) track scalar lengths; to *measure*
// delay (Figs. 2-4) we additionally keep the individual jobs. Service is
// fluid: h_{i,j}(t) jobs' worth of work (h * d_j work units) is applied to
// the queue head first (jobs can pause/resume, paper §III-B), and a job
// departs in the slot its remaining work reaches zero. The scalar length
// in jobs — total remaining work / d_j — then follows exactly the clamped
// dynamics q(t+1) = max[q + r - h, 0].
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "util/annotations.h"
#include "workload/job.h"

namespace grefar {

/// A job completion event: who finished and how long it took.
struct Completion {
  Job job;
  std::int64_t completion_slot = 0;

  /// Slots from arrival at the central scheduler to completion.
  std::int64_t total_delay() const { return completion_slot - job.arrival_slot; }
  /// Slots from entering the data-center queue to completion.
  std::int64_t dc_delay() const { return completion_slot - job.dc_entry_slot; }
};

class FifoJobQueue {
 public:
  /// `job_work` is d_j for the (single) job type this queue holds; used to
  /// convert between work units and job counts.
  explicit FifoJobQueue(double job_work);

  /// Enqueues an arriving/routed job (its remaining work must exceed
  /// kFinishedWork, or the job would already count as finished).
  /// The one-job reference for push_copies/transfer_front.
  void push(Job job);

  /// Appends `count` >= 0 copies of `proto` with ids proto.id, proto.id + 1,
  /// ..., proto.id + count - 1 (one admitted arrival batch). Bitwise equal to
  /// `count` push() calls: the work and value sums take one add per job, in
  /// order. proto.remaining must exceed kFinishedWork when count > 0.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void push_copies(const Job& proto, std::int64_t count);

  /// Moves up to `n` >= 0 head jobs, FIFO order, to the back of `dst`
  /// (another queue), stamping dc_entry_slot = `slot` on each; returns how
  /// many moved. Bitwise equal to that many pop_front() + dst.push() pairs,
  /// dust clamps included, without copying each job twice.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  std::int64_t transfer_front(FifoJobQueue& dst, std::int64_t n, std::int64_t slot);

  /// Empties the queue but keeps the job-type binding and the vector's heap
  /// capacity (engine reuse across sweep legs); observable state is bitwise
  /// equal to a fresh FifoJobQueue(job_work()).
  void clear() {
    jobs_.clear();
    head_ = 0;
    remaining_work_ = 0.0;
    total_value_ = 0.0;
    min_deadline_slot_ = kNoDeadlineSlot;
  }

  /// Pops the frontmost whole job; the one-job reference for
  /// transfer_front. Contract-checked non-empty.
  GREFAR_DETERMINISTIC
  Job pop_front();

  /// Applies up to `work` units of fluid FIFO service at `slot`; returns
  /// the completions and sets `consumed` to the work actually used.
  /// `per_job_cap` bounds the work any single job receives this slot (the
  /// parallelism constraint, JobType::max_rate); when the head job hits its
  /// cap, the remaining budget flows to the next job in FIFO order.
  std::vector<Completion> serve(
      double work, std::int64_t slot, double* consumed,
      double per_job_cap = std::numeric_limits<double>::infinity());

  /// Like serve(), but *appends* completions to a caller-owned buffer so the
  /// simulator can reuse one vector across queues and slots.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void serve_into(double work, std::int64_t slot, double* consumed,
                  std::vector<Completion>& completions,
                  double per_job_cap = std::numeric_limits<double>::infinity());

  /// Removes every job whose deadline_slot is earlier than `slot` (it can no
  /// longer complete in time) and *appends* the abandoned jobs, FIFO order,
  /// to the caller-owned buffer. O(1) when no queued job can be overdue: a
  /// running min-deadline watermark skips the scan entirely — queues of
  /// deadline-free jobs pay one compare per slot.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void expire_before(std::int64_t slot, std::vector<Job>& abandoned);

  bool empty() const { return head_ == jobs_.size(); }
  std::size_t job_count() const { return jobs_.size() - head_; }

  /// Queue length in (fractional) jobs: total remaining work / d_j.
  double length_jobs() const { return remaining_work_ / job_work_; }

  /// Total remaining work units queued.
  double remaining_work() const { return remaining_work_; }

  /// Sum of the base values of all queued jobs (value-conservation ledger).
  double total_value() const { return total_value_; }

  double job_work() const { return job_work_; }

 private:
  /// Reclaims the popped prefix [0, head_) when it dominates the storage.
  void compact_if_stale();
  /// Ensures `extra` more jobs fit without reallocating during the append:
  /// first by dropping the popped prefix, then by growing geometrically.
  void make_room(std::size_t extra);

  double job_work_;
  double remaining_work_ = 0.0;
  double total_value_ = 0.0;
  /// Lower bound on the earliest deadline_slot among queued jobs; may go
  /// stale (too small) after pops/completions — that only costs an extra
  /// scan in expire_before, which then re-tightens it.
  std::int64_t min_deadline_slot_ = kNoDeadlineSlot;
  // Live jobs are jobs_[head_ .. end), FIFO order. A vector with a popped-
  // prefix index replaces std::deque: libstdc++'s deque allocates a ~512 B
  // block map even while empty, which is fatal at millions of per-(i,j)
  // queues (DESIGN.md §12); an empty vector holds no heap storage at all.
  std::vector<Job> jobs_;
  std::size_t head_ = 0;
};

}  // namespace grefar

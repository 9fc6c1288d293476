#include "sim/queue.h"

#include <algorithm>

#include "util/check.h"

namespace grefar {

FifoJobQueue::FifoJobQueue(double job_work) : job_work_(job_work) {
  GREFAR_CHECK_MSG(job_work_ > 0.0, "job work must be positive");
}

void FifoJobQueue::make_room(std::size_t extra) {
  const std::size_t needed = jobs_.size() - head_ + extra;
  std::size_t capacity = jobs_.capacity();
  if (jobs_.size() + extra <= capacity) return;
  if (head_ > 0) {
    // Drop the popped prefix before growing: storage tracks live jobs.
    jobs_.erase(jobs_.begin(), jobs_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
    if (needed <= capacity) return;
  }
  // Grow to the capacity `extra` single push_backs would reach, in one
  // allocation: reserving exactly `needed` leaves no headroom, so a queue
  // that drains and refills every slot would reallocate at each new high.
  while (capacity < needed) capacity = capacity == 0 ? 1 : 2 * capacity;
  jobs_.reserve(capacity);
}

void FifoJobQueue::push(Job job) {
  GREFAR_CHECK_MSG(job.remaining > kFinishedWork, "cannot enqueue a finished job");
  remaining_work_ += job.remaining;
  total_value_ += job.value;
  if (job.deadline_slot < min_deadline_slot_) min_deadline_slot_ = job.deadline_slot;
  jobs_.push_back(std::move(job));
}

void FifoJobQueue::push_copies(const Job& proto, std::int64_t count) {
  GREFAR_CHECK_MSG(count >= 0, "negative job count " << count);
  if (count == 0) return;
  GREFAR_CHECK_MSG(proto.remaining > kFinishedWork, "cannot enqueue a finished job");
  make_room(static_cast<std::size_t>(count));
  for (std::int64_t k = 0; k < count; ++k) {
    // Within the capacity just made: no allocation.
    jobs_.push_back(proto);  // NOLINT(grefar-hot-path-alloc)
    jobs_.back().id = proto.id + static_cast<std::uint64_t>(k);
    remaining_work_ += proto.remaining;
    total_value_ += proto.value;
  }
  if (proto.deadline_slot < min_deadline_slot_) min_deadline_slot_ = proto.deadline_slot;
}

std::int64_t FifoJobQueue::transfer_front(FifoJobQueue& dst, std::int64_t n,
                                          std::int64_t slot) {
  GREFAR_CHECK_MSG(n >= 0, "negative transfer count " << n);
  GREFAR_CHECK_MSG(&dst != this, "transfer_front into the same queue");
  const std::size_t k = std::min(static_cast<std::size_t>(n), job_count());
  if (k == 0) return 0;
  const std::size_t end = head_ + k;
  dst.make_room(k);
  // The per-job sequence of pop_front() on this queue and push() on dst:
  // the two sets of sums are independent, so one pass does both.
  for (std::size_t r = head_; r < end; ++r) {
    const Job& job = jobs_[r];
    GREFAR_CHECK_MSG(job.remaining > kFinishedWork, "cannot enqueue a finished job");
    remaining_work_ -= job.remaining;
    if (remaining_work_ < 0.0) remaining_work_ = 0.0;  // numeric dust
    total_value_ -= job.value;
    if (r + 1 == jobs_.size() || total_value_ < 0.0) total_value_ = 0.0;
    dst.remaining_work_ += job.remaining;
    dst.total_value_ += job.value;
    if (job.deadline_slot < dst.min_deadline_slot_) {
      dst.min_deadline_slot_ = job.deadline_slot;
    }
  }
  const std::size_t first = dst.jobs_.size();
  // Within the capacity just made: no allocation.
  dst.jobs_.insert(dst.jobs_.end(),  // NOLINT(grefar-hot-path-alloc)
                   jobs_.begin() + static_cast<std::ptrdiff_t>(head_),
                   jobs_.begin() + static_cast<std::ptrdiff_t>(end));
  for (std::size_t r = first; r < dst.jobs_.size(); ++r) {
    dst.jobs_[r].dc_entry_slot = slot;
  }
  head_ = end;
  compact_if_stale();
  return static_cast<std::int64_t>(k);
}

Job FifoJobQueue::pop_front() {
  GREFAR_CHECK_MSG(head_ < jobs_.size(), "pop_front on empty queue");
  Job job = std::move(jobs_[head_]);
  ++head_;
  remaining_work_ -= job.remaining;
  if (remaining_work_ < 0.0) remaining_work_ = 0.0;  // numeric dust
  total_value_ -= job.value;
  if (empty() || total_value_ < 0.0) total_value_ = 0.0;
  compact_if_stale();
  return job;
}

void FifoJobQueue::compact_if_stale() {
  if (head_ == jobs_.size()) {
    jobs_.clear();
    head_ = 0;
  } else if (head_ >= 64 && head_ * 2 >= jobs_.size()) {
    // Amortized O(1): each erase moves at most as many live jobs as were
    // popped since the last compaction.
    jobs_.erase(jobs_.begin(),
                jobs_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

std::vector<Completion> FifoJobQueue::serve(double work, std::int64_t slot,
                                            double* consumed, double per_job_cap) {
  std::vector<Completion> completions;
  serve_into(work, slot, consumed, completions, per_job_cap);
  return completions;
}

void FifoJobQueue::serve_into(double work, std::int64_t slot, double* consumed,
                              std::vector<Completion>& completions,
                              double per_job_cap) {
  GREFAR_CHECK_MSG(work >= -1e-12, "negative service work " << work);
  GREFAR_CHECK_MSG(per_job_cap > 0.0, "per-job cap must be positive");
  double budget = std::max(work, 0.0);
  double used = 0.0;
  std::size_t touched = head_;
  for (; touched < jobs_.size() && budget > 1e-12; ++touched) {
    double give = std::min({budget, per_job_cap, jobs_[touched].remaining});
    jobs_[touched].remaining -= give;
    remaining_work_ -= give;
    used += give;
    budget -= give;
  }
  // Only a job served this slot can have finished: every queued job entered
  // with more than kFinishedWork, and an untouched one still holds it. So
  // collect finished jobs, in FIFO order, from the served prefix alone (a
  // capped head can leave later, smaller jobs finishing first).
  std::size_t finished = 0;
  for (std::size_t r = head_; r < touched; ++r) {
    if (jobs_[r].remaining <= kFinishedWork) {
      total_value_ -= jobs_[r].value;
      Completion c{jobs_[r], slot};
      c.job.remaining = 0.0;
      // Amortized: the engine passes one high-water completions buffer
      // reused across queues and slots (see the header contract).
      completions.push_back(std::move(c));  // NOLINT(grefar-hot-path-alloc)
      ++finished;
    }
  }
  if (finished > 0) {
    // Survivors of [head_, touched) slide back in order, so the finished
    // jobs become popped prefix and the jobs behind them never move.
    std::size_t w = touched;
    for (std::size_t r = touched; r-- > head_;) {
      if (jobs_[r].remaining > kFinishedWork && --w != r) {
        jobs_[w] = std::move(jobs_[r]);
      }
    }
    head_ = w;
    compact_if_stale();
  }
  if (remaining_work_ < 0.0) remaining_work_ = 0.0;
  if (empty() || total_value_ < 0.0) total_value_ = 0.0;
  if (consumed != nullptr) *consumed = used;
}

void FifoJobQueue::expire_before(std::int64_t slot, std::vector<Job>& abandoned) {
  if (min_deadline_slot_ >= slot) return;  // nothing can be overdue
  std::int64_t min_deadline = kNoDeadlineSlot;
  std::size_t w = head_;
  for (std::size_t r = head_; r < jobs_.size(); ++r) {
    if (jobs_[r].deadline_slot < slot) {
      remaining_work_ -= jobs_[r].remaining;
      total_value_ -= jobs_[r].value;
      // Amortized: the engine passes one high-water abandoned buffer reused
      // across queues and slots (see the header contract).
      abandoned.push_back(std::move(jobs_[r]));  // NOLINT(grefar-hot-path-alloc)
    } else {
      if (jobs_[r].deadline_slot < min_deadline) min_deadline = jobs_[r].deadline_slot;
      if (w != r) jobs_[w] = std::move(jobs_[r]);
      ++w;
    }
  }
  jobs_.resize(w);  // NOLINT(grefar-hot-path-alloc): shrink, never allocates
  if (head_ == jobs_.size()) {
    jobs_.clear();
    head_ = 0;
  }
  min_deadline_slot_ = min_deadline;  // re-tightened by the survivor scan
  if (remaining_work_ < 0.0) remaining_work_ = 0.0;
  if (empty() || total_value_ < 0.0) total_value_ = 0.0;
}

}  // namespace grefar

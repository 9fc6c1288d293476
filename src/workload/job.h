// Job model (paper §III-B, extended per arXiv 1404.4865 / 1509.03699).
//
// A job is {d, D, rho}: service demand d > 0 (work units; the paper scales
// "1" to 1000 hours on a speed-1 server), an eligible data-center set D
// (where the job's input data lives), and an owning account rho. Jobs with
// the same tuple form a *job type*; arrivals are counted per type per slot.
//
// The revenue-management descendants add per-job economics on top: a base
// value v_j realized when the job completes, a decay curve discounting that
// value by the job's total delay, and a relative completion deadline after
// which the job is abandoned (removed from its queue, value forfeit). All
// three default to the paper's behavior (value 1, no decay, no deadline).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/check.h"

namespace grefar {

using AccountId = std::size_t;
using JobTypeId = std::size_t;
using DataCenterId = std::size_t;

/// How a job's value discounts with its total delay (arrival -> completion).
enum class DecayKind : std::uint8_t {
  kNone,         // full value whenever the job completes
  kLinear,       // value * max(0, 1 - rate * delay)
  kExponential,  // value * exp(-rate * delay)
};

/// No relative deadline (JobType::deadline / ArrivalBatch::deadline).
inline constexpr std::int64_t kNoDeadline = -1;
/// Sentinel absolute deadline slot for "never expires" (Job::deadline_slot).
inline constexpr std::int64_t kNoDeadlineSlot =
    std::numeric_limits<std::int64_t>::max();

/// Value realized by a job of base value 1 completing `delay` slots after
/// arrival. Pure and branch-cheap: the engine calls it per completion.
inline double decay_factor(DecayKind kind, double rate, std::int64_t delay) {
  switch (kind) {
    case DecayKind::kNone: return 1.0;
    case DecayKind::kLinear:
      return std::max(0.0, 1.0 - rate * static_cast<double>(delay));
    case DecayKind::kExponential:
      return std::exp(-rate * static_cast<double>(delay));
  }
  return 1.0;
}

/// Static description of one job type y_j = {d_j, D_j, rho_j}.
struct JobType {
  std::string name;
  double work = 1.0;                        // d_j, in work units
  std::vector<DataCenterId> eligible_dcs;   // D_j, sorted ascending
  AccountId account = 0;                    // rho_j
  /// Parallelism constraint (paper §III-B): the paper assumes jobs are fully
  /// parallelizable but notes the model adapts by bounding how many servers
  /// one job can occupy. max_rate is that bound expressed as work units one
  /// job can absorb per slot; infinity (default) = fully parallelizable.
  double max_rate = std::numeric_limits<double>::infinity();
  /// Base value v_j realized on completion (arXiv 1404.4865). Per-batch
  /// trace annotations override it (trace/trace_schema.h, schema v2).
  double value = 1.0;
  /// Value-decay curve over total delay; decay_rate is the curve's rate
  /// parameter (slope for kLinear, exponent for kExponential).
  DecayKind decay = DecayKind::kNone;
  double decay_rate = 0.0;
  /// Relative completion deadline in slots counted from the arrival slot
  /// (a job arriving at t must complete by t + deadline); kNoDeadline = none.
  std::int64_t deadline = kNoDeadline;

  bool eligible(DataCenterId dc) const {
    for (DataCenterId d : eligible_dcs) {
      if (d == dc) return true;
    }
    return false;
  }
};

/// A job holding at most this much remaining work is finished: FIFO service
/// completes it, and no queue accepts it (sim/queue.h).
inline constexpr double kFinishedWork = 1e-12;

/// A concrete job instance inside a queue. `remaining` shrinks as the fluid
/// FIFO service applies work; the job departs once it is kFinishedWork or less.
struct Job {
  std::uint64_t id = 0;
  JobTypeId type = 0;
  std::int64_t arrival_slot = 0;   // slot during which the job arrived
  std::int64_t dc_entry_slot = 0;  // slot during which it was routed to a DC
  double remaining = 0.0;          // work units left
  double value = 1.0;              // base value realized on completion
  double decay_rate = 0.0;         // rate of the owning type's decay curve
  std::int64_t deadline_slot = kNoDeadlineSlot;  // absolute; kNoDeadlineSlot = none
};

/// Validates a job-type table: positive work, non-empty eligible sets,
/// account ids within [0, num_accounts), sane value/decay/deadline.
inline void validate_job_types(const std::vector<JobType>& types,
                               std::size_t num_data_centers,
                               std::size_t num_accounts) {
  GREFAR_CHECK_MSG(!types.empty(), "need at least one job type");
  for (const auto& jt : types) {
    GREFAR_CHECK_MSG(jt.work > kFinishedWork, "job type '" << jt.name << "' has work <= "
                                                             << kFinishedWork
                                                             << " (a finished job)");
    GREFAR_CHECK_MSG(!jt.eligible_dcs.empty(),
                     "job type '" << jt.name << "' has empty eligible set");
    for (DataCenterId dc : jt.eligible_dcs) {
      GREFAR_CHECK_MSG(dc < num_data_centers,
                       "job type '" << jt.name << "' references bad DC " << dc);
    }
    GREFAR_CHECK_MSG(jt.account < num_accounts,
                     "job type '" << jt.name << "' references bad account");
    GREFAR_CHECK_MSG(jt.max_rate > 0.0,
                     "job type '" << jt.name << "' has max_rate <= 0");
    GREFAR_CHECK_MSG(std::isfinite(jt.value) && jt.value >= 0.0,
                     "job type '" << jt.name << "' has bad value");
    GREFAR_CHECK_MSG(std::isfinite(jt.decay_rate) && jt.decay_rate >= 0.0,
                     "job type '" << jt.name << "' has bad decay rate");
    GREFAR_CHECK_MSG(jt.deadline == kNoDeadline || jt.deadline >= 0,
                     "job type '" << jt.name << "' has bad deadline");
  }
}

}  // namespace grefar

// Arrival processes (paper §III-B).
//
// a_j(t): number of type-j jobs arriving during slot t. The paper makes no
// distributional assumption beyond boundedness 0 <= a_j(t) <= a_j^max;
// implementations here range from deterministic to the non-stationary
// bursty generator that stands in for the Microsoft Cosmos trace.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/rng.h"
#include "workload/job.h"

namespace grefar {

/// Resolve-to-type-default sentinel for ArrivalBatch::deadline (distinct
/// from kNoDeadline, which explicitly disables the deadline).
inline constexpr std::int64_t kTypeDefaultDeadline =
    std::numeric_limits<std::int64_t>::min();

/// One group of identical arrivals within a slot, optionally carrying
/// per-batch value/decay/deadline annotations (trace schema v2; see
/// JobTraceSchema in trace/stream_source.h). NaN value/decay and kTypeDefaultDeadline mean
/// "resolve from the JobType defaults" — a plain count trace round-trips
/// through batches without inventing economics.
struct ArrivalBatch {
  JobTypeId type = 0;
  std::int64_t count = 0;
  /// Per-job base value; NaN = use JobType::value.
  double value = std::numeric_limits<double>::quiet_NaN();
  /// Decay-curve rate; NaN = use JobType::decay_rate (the curve *kind*
  /// always comes from the type).
  double decay_rate = std::numeric_limits<double>::quiet_NaN();
  /// Relative completion deadline in slots; kNoDeadline = none,
  /// kTypeDefaultDeadline = use JobType::deadline.
  std::int64_t deadline = kTypeDefaultDeadline;
};

/// Interface: per-slot arrival counts for every job type. Implementations
/// must be deterministic functions of (parameters, t) so runs replay.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Arrival counts per job type during slot t (size == num_job_types()).
  virtual std::vector<std::int64_t> arrivals(std::int64_t t) const = 0;

  /// Writes the slot-t counts into `out`, reusing its storage. The default
  /// delegates to arrivals(); concrete processes override to copy straight
  /// from their internal table/cache so the simulator's per-slot loop stays
  /// free of heap traffic.
  virtual void arrivals_into(std::int64_t t, std::vector<std::int64_t>& out) const {
    out = arrivals(t);
  }

  virtual std::size_t num_job_types() const = 0;

  /// The boundedness constant a_j^max of eq. (1).
  virtual std::int64_t max_arrivals(JobTypeId j) const = 0;

  /// True when this process carries per-batch value/decay/deadline
  /// annotations; the engine then pulls valued_arrivals_into() instead of
  /// arrivals_into(), so count-only processes pay nothing for the feature.
  virtual bool has_valued_arrivals() const { return false; }

  /// Writes slot t's arrival batches into `out` (storage reused; batches in
  /// a deterministic per-slot order, sum of counts per type consistent with
  /// arrivals_into). Only called when has_valued_arrivals() is true; the
  /// default contract-fails.
  virtual void valued_arrivals_into(std::int64_t t,
                                    std::vector<ArrivalBatch>& out) const;
};

/// Fixed counts every slot (unit tests, slackness checks).
class ConstantArrivals final : public ArrivalProcess {
 public:
  explicit ConstantArrivals(std::vector<std::int64_t> counts);

  std::vector<std::int64_t> arrivals(std::int64_t t) const override;
  void arrivals_into(std::int64_t t, std::vector<std::int64_t>& out) const override;
  std::size_t num_job_types() const override { return counts_.size(); }
  std::int64_t max_arrivals(JobTypeId j) const override;

 private:
  std::vector<std::int64_t> counts_;
};

/// Independent Poisson arrivals per type, truncated at a_max (stationary
/// baseline for tests and ablations).
class PoissonArrivals final : public ArrivalProcess {
 public:
  PoissonArrivals(std::vector<double> rates, std::vector<std::int64_t> a_max,
                  std::uint64_t seed);

  std::vector<std::int64_t> arrivals(std::int64_t t) const override;
  void arrivals_into(std::int64_t t, std::vector<std::int64_t>& out) const override;
  std::size_t num_job_types() const override { return rates_.size(); }
  std::int64_t max_arrivals(JobTypeId j) const override;

 private:
  void extend(std::int64_t t) const;

  std::vector<double> rates_;
  std::vector<std::int64_t> a_max_;
  std::uint64_t seed_;
  mutable std::vector<std::vector<std::int64_t>> cache_;  // [t][j]
  mutable Rng rng_;
};

/// Arrival counts replayed from memory (e.g. a CSV trace); slots beyond the
/// trace wrap around.
class TableArrivals final : public ArrivalProcess {
 public:
  /// counts[t][j]; all rows must have the same width.
  explicit TableArrivals(std::vector<std::vector<std::int64_t>> counts);

  std::vector<std::int64_t> arrivals(std::int64_t t) const override;
  void arrivals_into(std::int64_t t, std::vector<std::int64_t>& out) const override;
  std::size_t num_job_types() const override;
  std::int64_t max_arrivals(JobTypeId j) const override;

 private:
  std::vector<std::vector<std::int64_t>> counts_;
};

/// Valued arrival batches replayed from memory (a schema-v2 job trace, see
/// trace/job_trace.h); slots beyond the table wrap around, matching
/// TableArrivals. Batch order within a slot is preserved as given.
class ValuedTableArrivals final : public ArrivalProcess {
 public:
  /// slots[t] = that slot's batches; `num_types` fixes the count-vector
  /// width (batches reference types sparsely, so it cannot be inferred).
  ValuedTableArrivals(std::vector<std::vector<ArrivalBatch>> slots,
                      std::size_t num_types);

  std::vector<std::int64_t> arrivals(std::int64_t t) const override;
  void arrivals_into(std::int64_t t, std::vector<std::int64_t>& out) const override;
  std::size_t num_job_types() const override { return num_types_; }
  std::int64_t max_arrivals(JobTypeId j) const override;
  bool has_valued_arrivals() const override { return true; }
  void valued_arrivals_into(std::int64_t t,
                            std::vector<ArrivalBatch>& out) const override;

 private:
  std::vector<std::vector<ArrivalBatch>> slots_;
  std::size_t num_types_;
  std::vector<std::int64_t> max_arrivals_;  // per-type high-water
};

}  // namespace grefar

// SimMetrics: everything the paper's evaluation plots, recorded per slot.
//
// The figures all show *running averages* ("summing up all the values up to
// time t and dividing by t", paper §VI footnote 8); the accessors here
// produce exactly those views from the raw per-slot series.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/integer_histogram.h"
#include "stats/time_series.h"
#include "util/annotations.h"
#include "util/json.h"

namespace grefar {

class SimMetrics {
 public:
  /// Per-account TimeSeries are kept only up to this many accounts. Above
  /// it, a million-account run over T slots would allocate M series of T
  /// doubles each; only the cumulative per-account totals are tracked
  /// (account_work_total, always maintained at any M).
  static constexpr std::size_t kMaxPerAccountSeries = 4096;

  SimMetrics(std::size_t num_dcs, std::size_t num_accounts);

  /// Back to the freshly-constructed state. When the (num_dcs, num_accounts)
  /// shape is unchanged, every series is cleared in place keeping its heap
  /// capacity (sweep-arena reuse, allocation-free in steady state); a shape
  /// change falls back to rebuilding. Either way the observable state is
  /// bitwise equal to SimMetrics(num_dcs, num_accounts).
  void reset(std::size_t num_dcs, std::size_t num_accounts);

  /// Records one job completion (total delay in whole slots, >= 0) in the
  /// delay histogram; the engine calls this for every finishing job.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void record_completion_delay(std::int64_t delay) { delay_stats.add(delay); }

  // -- raw per-slot series ---------------------------------------------------
  TimeSeries energy_cost;        // e(t), eq. (2) summed over DCs
  TimeSeries fairness;           // f(t), eq. (3)
  TimeSeries arrived_jobs;       // jobs *admitted* into the queues this slot
  TimeSeries arrived_work;       // work admitted into the queues this slot
  TimeSeries total_queue_jobs;   // sum of all queue lengths (jobs)
  TimeSeries max_queue_jobs;     // max single queue length (jobs)
  // -- admission / value economics (arXiv 1404.4865 lineage) ----------------
  // With no admission policy and no deadlines: offered == arrived (admitted),
  // rejected/abandoned are all-zero, realized value counts completions at
  // their decayed values (base value x decay factor).
  TimeSeries offered_jobs;       // raw a_j(t) total, before admission
  TimeSeries rejected_jobs;      // jobs turned away by the admission policy
  TimeSeries abandoned_jobs;     // jobs deadline-expired out of the queues
  TimeSeries abandoned_work;     // their remaining (unserved) work units
  TimeSeries admitted_value;     // sum of base values admitted
  TimeSeries rejected_value;     // sum of base values rejected
  TimeSeries abandoned_value;    // sum of base values abandoned
  TimeSeries realized_value;     // decayed value realized by completions
  TimeSeries decay_loss;         // base - realized over completions

  double total_realized_value() const { return realized_value.sum(); }
  double total_rejected_value() const { return rejected_value.sum(); }
  double total_abandoned_value() const { return abandoned_value.sum(); }
  std::vector<TimeSeries> dc_energy_cost;   // e_i(t)
  std::vector<TimeSeries> dc_work;          // work processed in DC i
  std::vector<TimeSeries> dc_routed_jobs;   // jobs routed to DC i
  std::vector<TimeSeries> dc_delay_sum;     // sum of total delays of jobs finishing in DC i
  std::vector<TimeSeries> dc_completions;   // jobs finishing in DC i
  std::vector<TimeSeries> dc_price;         // phi_i(t)
  /// Per-slot work processed for account m. Empty (not recorded) when the
  /// cluster has more than kMaxPerAccountSeries accounts — check
  /// has_per_account_series() before indexing.
  std::vector<TimeSeries> account_work;
  /// Cumulative work processed for account m, maintained at any M (a flat
  /// vector of doubles: 8 MB at M = 10^6, independent of the horizon).
  std::vector<double> account_work_total;

  bool has_per_account_series() const { return !account_work.empty(); }

  std::size_t num_data_centers() const { return dc_work.size(); }
  std::size_t num_accounts() const { return num_accounts_; }
  std::size_t slots() const { return energy_cost.size(); }

  // -- derived views (the paper's y-axes) -------------------------------------
  /// Fig. 2a/3a/4a: running average energy cost.
  TimeSeries average_energy_cost() const { return energy_cost.prefix_average(); }

  /// Fig. 3b/4b: running average fairness score.
  TimeSeries average_fairness() const { return fairness.prefix_average(); }

  /// Fig. 2b,c/3c/4c: running average delay of jobs completed in DC i
  /// (total delay incurred so far / jobs finished so far).
  TimeSeries average_dc_delay(std::size_t dc) const;

  /// Overall mean delay across all DCs (jobs-weighted).
  double mean_delay() const;

  /// Mean work per slot processed in DC i (the in-text §VI-B1 numbers).
  double mean_dc_work(std::size_t dc) const;

  /// Final running-average values (the figures' right edge).
  double final_average_energy_cost() const { return energy_cost.mean(); }
  double final_average_fairness() const { return fairness.mean(); }
  double final_average_dc_delay(std::size_t dc) const;

  /// Exact delay percentiles across all completed jobs (type-7 order
  /// statistics of the delay histogram): tail latency, which the paper's
  /// averages hide. NaN when no job completed.
  double delay_p50() const { return delay_stats.quantile(0.50); }
  double delay_p95() const { return delay_stats.quantile(0.95); }
  double delay_p99() const { return delay_stats.quantile(0.99); }
  /// Count of completions per whole-slot total delay: count/min/max/mean
  /// and the percentiles above, all exact.
  IntegerHistogram delay_stats;

  /// End-of-run summary for bench/tool JSON output. The delay percentiles
  /// are NaN when no job ever completed; they serialize as null here (the
  /// JSON layer rejects NaN outright).
  JsonValue summary_json() const;

 private:
  std::size_t num_accounts_ = 0;
};

}  // namespace grefar

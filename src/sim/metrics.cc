#include "sim/metrics.h"

#include <cmath>

#include "util/check.h"

namespace grefar {

namespace {

// The JSON layer rejects non-finite numbers; NaN means "no samples here".
JsonValue number_or_null(double x) {
  return std::isnan(x) ? JsonValue(nullptr) : JsonValue(x);
}

}  // namespace

SimMetrics::SimMetrics(std::size_t num_dcs, std::size_t num_accounts)
    : energy_cost("energy_cost"),
      fairness("fairness"),
      arrived_jobs("arrived_jobs"),
      arrived_work("arrived_work"),
      total_queue_jobs("total_queue_jobs"),
      max_queue_jobs("max_queue_jobs"),
      offered_jobs("offered_jobs"),
      rejected_jobs("rejected_jobs"),
      abandoned_jobs("abandoned_jobs"),
      abandoned_work("abandoned_work"),
      admitted_value("admitted_value"),
      rejected_value("rejected_value"),
      abandoned_value("abandoned_value"),
      realized_value("realized_value"),
      decay_loss("decay_loss"),
      num_accounts_(num_accounts) {
  GREFAR_CHECK(num_dcs > 0);
  GREFAR_CHECK(num_accounts > 0);
  for (std::size_t i = 0; i < num_dcs; ++i) {
    auto suffix = std::to_string(i + 1);
    dc_energy_cost.emplace_back("dc" + suffix + "_energy_cost");
    dc_work.emplace_back("dc" + suffix + "_work");
    dc_routed_jobs.emplace_back("dc" + suffix + "_routed_jobs");
    dc_delay_sum.emplace_back("dc" + suffix + "_delay_sum");
    dc_completions.emplace_back("dc" + suffix + "_completions");
    dc_price.emplace_back("dc" + suffix + "_price");
  }
  if (num_accounts <= kMaxPerAccountSeries) {
    for (std::size_t m = 0; m < num_accounts; ++m) {
      account_work.emplace_back("account" + std::to_string(m + 1) + "_work");
    }
  }
  account_work_total.assign(num_accounts, 0.0);
}

void SimMetrics::reset(std::size_t num_dcs, std::size_t num_accounts) {
  if (num_dcs != num_data_centers() || num_accounts != num_accounts_ ||
      (num_accounts <= kMaxPerAccountSeries) != has_per_account_series()) {
    *this = SimMetrics(num_dcs, num_accounts);
    return;
  }
  TimeSeries* const scalars[] = {
      &energy_cost,     &fairness,       &arrived_jobs,   &arrived_work,
      &total_queue_jobs, &max_queue_jobs, &offered_jobs,   &rejected_jobs,
      &abandoned_jobs,  &abandoned_work, &admitted_value, &rejected_value,
      &abandoned_value, &realized_value, &decay_loss};
  for (TimeSeries* s : scalars) s->clear();
  for (auto* group : {&dc_energy_cost, &dc_work, &dc_routed_jobs,
                      &dc_delay_sum, &dc_completions, &dc_price, &account_work}) {
    for (TimeSeries& s : *group) s.clear();
  }
  account_work_total.assign(num_accounts, 0.0);
  delay_stats.reset();
}

TimeSeries SimMetrics::average_dc_delay(std::size_t dc) const {
  GREFAR_CHECK(dc < dc_delay_sum.size());
  return TimeSeries::prefix_ratio(dc_delay_sum[dc], dc_completions[dc],
                                  dc_delay_sum[dc].name() + "_avg");
}

double SimMetrics::mean_delay() const {
  double delay = 0.0, jobs = 0.0;
  for (std::size_t i = 0; i < dc_delay_sum.size(); ++i) {
    delay += dc_delay_sum[i].sum();
    jobs += dc_completions[i].sum();
  }
  return jobs > 0.0 ? delay / jobs : 0.0;
}

double SimMetrics::mean_dc_work(std::size_t dc) const {
  GREFAR_CHECK(dc < dc_work.size());
  return dc_work[dc].mean();
}

double SimMetrics::final_average_dc_delay(std::size_t dc) const {
  GREFAR_CHECK(dc < dc_delay_sum.size());
  double jobs = dc_completions[dc].sum();
  return jobs > 0.0 ? dc_delay_sum[dc].sum() / jobs : 0.0;
}

JsonValue SimMetrics::summary_json() const {
  JsonObject o;
  o["slots"] = JsonValue(static_cast<double>(slots()));
  o["final_average_energy_cost"] = JsonValue(final_average_energy_cost());
  o["final_average_fairness"] = JsonValue(final_average_fairness());
  o["completions"] = JsonValue(static_cast<double>(delay_stats.count()));
  o["mean_delay"] = JsonValue(mean_delay());
  o["delay_p50"] = number_or_null(delay_p50());
  o["delay_p95"] = number_or_null(delay_p95());
  o["delay_p99"] = number_or_null(delay_p99());
  {
    JsonObject adm;
    adm["offered_jobs"] = JsonValue(offered_jobs.sum());
    adm["admitted_jobs"] = JsonValue(arrived_jobs.sum());
    adm["rejected_jobs"] = JsonValue(rejected_jobs.sum());
    adm["abandoned_jobs"] = JsonValue(abandoned_jobs.sum());
    adm["abandoned_work"] = JsonValue(abandoned_work.sum());
    adm["admitted_value"] = JsonValue(admitted_value.sum());
    adm["rejected_value"] = JsonValue(rejected_value.sum());
    adm["abandoned_value"] = JsonValue(abandoned_value.sum());
    adm["realized_value"] = JsonValue(realized_value.sum());
    adm["decay_loss"] = JsonValue(decay_loss.sum());
    o["admission"] = JsonValue(std::move(adm));
  }
  JsonArray per_dc;
  for (std::size_t i = 0; i < num_data_centers(); ++i) {
    JsonObject d;
    d["mean_work"] = JsonValue(mean_dc_work(i));
    d["routed_jobs"] = JsonValue(dc_routed_jobs[i].sum());
    d["completions"] = JsonValue(dc_completions[i].sum());
    d["final_average_delay"] = JsonValue(final_average_dc_delay(i));
    per_dc.emplace_back(std::move(d));
  }
  o["data_centers"] = JsonValue(std::move(per_dc));
  if (has_per_account_series()) {
    JsonArray per_account;
    for (std::size_t m = 0; m < num_accounts(); ++m) {
      per_account.emplace_back(account_work[m].sum());
    }
    o["account_work"] = JsonValue(std::move(per_account));
  } else {
    // Million-account mode: a per-account array would dominate the summary,
    // so emit aggregate shape instead.
    double total = 0.0;
    double nonzero = 0.0;
    for (double w : account_work_total) {
      total += w;
      if (w != 0.0) nonzero += 1.0;
    }
    JsonObject aw;
    aw["num_accounts"] = JsonValue(static_cast<double>(num_accounts()));
    aw["accounts_served"] = JsonValue(nonzero);
    aw["total_work"] = JsonValue(total);
    o["account_work_summary"] = JsonValue(std::move(aw));
  }
  return JsonValue(std::move(o));
}

}  // namespace grefar

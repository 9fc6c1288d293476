#include "sim/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

namespace grefar {
namespace {

SimMetrics populated_metrics() {
  SimMetrics m(2, 3);
  for (int t = 0; t < 4; ++t) {
    m.energy_cost.add(10.0 + t);
    m.fairness.add(1.0);
    m.arrived_jobs.add(5.0);
    m.arrived_work.add(5.0);
    m.total_queue_jobs.add(2.0);
    m.max_queue_jobs.add(1.0);
    for (std::size_t i = 0; i < 2; ++i) {
      m.dc_energy_cost[i].add(5.0);
      m.dc_work[i].add(3.0);
      m.dc_routed_jobs[i].add(2.0);
      m.dc_delay_sum[i].add(4.0);
      m.dc_completions[i].add(2.0);
      m.dc_price[i].add(1.0);
    }
    for (std::size_t a = 0; a < 3; ++a) m.account_work[a].add(2.0);
  }
  return m;
}

TEST(SimMetrics, SummaryJsonReportsPercentiles) {
  SimMetrics m = populated_metrics();
  m.record_completion_delay(1.0);
  m.record_completion_delay(2.0);
  m.record_completion_delay(3.0);

  const JsonValue s = m.summary_json();
  ASSERT_TRUE(s.is_object());
  EXPECT_DOUBLE_EQ(s.find("slots")->as_number(), 4.0);
  EXPECT_DOUBLE_EQ(s.find("completions")->as_number(), 3.0);
  const JsonValue* p50 = s.find("delay_p50");
  ASSERT_NE(p50, nullptr);
  ASSERT_TRUE(p50->is_number());
  EXPECT_DOUBLE_EQ(p50->as_number(), 2.0);
  EXPECT_TRUE(s.find("delay_p95")->is_number());
  EXPECT_TRUE(s.find("delay_p99")->is_number());
  ASSERT_TRUE(s.find("data_centers")->is_array());
  EXPECT_EQ(s.find("data_centers")->as_array().size(), 2u);
  ASSERT_TRUE(s.find("account_work")->is_array());
  EXPECT_EQ(s.find("account_work")->as_array().size(), 3u);
  // dump() must not throw — the serializer rejects NaN/Inf outright, so
  // every number in the summary has to be finite.
  EXPECT_FALSE(s.dump().empty());
}

TEST(SimMetrics, SummaryJsonNullPercentilesWhenNoCompletions) {
  // A run where no job ever finishes: the delay percentiles are NaN, which
  // must surface as JSON null — not as a fake zero-delay percentile.
  SimMetrics m = populated_metrics();
  EXPECT_TRUE(std::isnan(m.delay_p50()));

  const JsonValue s = m.summary_json();
  ASSERT_TRUE(s.is_object());
  EXPECT_TRUE(s.find("delay_p50")->is_null());
  EXPECT_TRUE(s.find("delay_p95")->is_null());
  EXPECT_TRUE(s.find("delay_p99")->is_null());
  EXPECT_DOUBLE_EQ(s.find("completions")->as_number(), 0.0);
  const std::string text = s.dump();
  EXPECT_NE(text.find("\"delay_p50\":null"), std::string::npos);
}

}  // namespace
}  // namespace grefar

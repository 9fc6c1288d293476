#include "obs/profile.h"

#include <gtest/gtest.h>

#include <string>

namespace grefar {
namespace {

TEST(ProfileRegistry, RecordsAndMerges) {
  obs::ProfileRegistry a, b;
  a.record("phase", 100.0);
  a.record("phase", 300.0);
  b.record("phase", 600.0, 2);
  b.record("other", 50.0);
  a.merge(b);
  const auto& phases = a.phases();
  ASSERT_EQ(phases.count("phase"), 1u);
  EXPECT_EQ(phases.at("phase").calls, 4u);
  EXPECT_DOUBLE_EQ(phases.at("phase").total_ns, 1000.0);
  EXPECT_EQ(phases.at("other").calls, 1u);
}

TEST(ProfileRegistry, SummaryTableListsPhases) {
  obs::ProfileRegistry reg;
  reg.record("decide", 2e6, 10);
  reg.record("serve", 1e6, 10);
  const std::string table = reg.summary_table();
  EXPECT_NE(table.find("decide"), std::string::npos);
  EXPECT_NE(table.find("serve"), std::string::npos);
  // Sorted by total time descending: decide before serve.
  EXPECT_LT(table.find("decide"), table.find("serve"));
}

TEST(ScopedTimer, NoOpWithoutActiveRegistry) {
  ASSERT_EQ(obs::active_profile(), nullptr);
  { obs::ScopedTimer timer("unobserved"); }
}

TEST(ScopedTimer, RecordsIntoActiveRegistry) {
  obs::ProfileRegistry reg;
  {
    obs::ProfileScope scope(&reg);
    { obs::ScopedTimer timer("work"); }
    { obs::ScopedTimer timer("work"); }
  }
  ASSERT_EQ(reg.phases().count("work"), 1u);
  EXPECT_EQ(reg.phases().at("work").calls, 2u);
  EXPECT_GE(reg.phases().at("work").total_ns, 0.0);
  // Outside the scope nothing is recorded.
  { obs::ScopedTimer timer("work"); }
  EXPECT_EQ(reg.phases().at("work").calls, 2u);
}

}  // namespace
}  // namespace grefar

#include "obs/profile.h"

#include <algorithm>
#include <vector>

#include "stats/summary_table.h"
#include "util/strings.h"

namespace grefar::obs {

void ProfileRegistry::record(std::string_view name, double ns, std::uint64_t calls) {
  auto it = phases_.find(name);
  if (it == phases_.end()) {
    phases_.emplace(std::string(name), Phase{calls, ns});
  } else {
    it->second.calls += calls;
    it->second.total_ns += ns;
  }
}

void ProfileRegistry::merge(const ProfileRegistry& other) {
  for (const auto& [name, phase] : other.phases_) {
    record(name, phase.total_ns, phase.calls);
  }
}

std::string ProfileRegistry::summary_table() const {
  std::vector<std::pair<std::string, Phase>> rows(phases_.begin(), phases_.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.total_ns != b.second.total_ns) {
      return a.second.total_ns > b.second.total_ns;
    }
    return a.first < b.first;
  });
  SummaryTable table({"phase", "calls", "total ms", "mean us"});
  for (const auto& [name, phase] : rows) {
    double mean_us =
        phase.calls > 0 ? phase.total_ns / 1e3 / static_cast<double>(phase.calls) : 0.0;
    table.add_row({name, std::to_string(phase.calls),
                   format_fixed(phase.total_ns / 1e6, 3), format_fixed(mean_us, 3)});
  }
  return table.render();
}

ProfileScope::ProfileScope(ProfileRegistry* registry)
    : previous_(detail::t_active_profile) {
  detail::t_active_profile = registry;
}

ProfileScope::~ProfileScope() { detail::t_active_profile = previous_; }

}  // namespace grefar::obs

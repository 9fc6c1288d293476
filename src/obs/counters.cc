#include "obs/counters.h"

namespace grefar::obs {

void CounterRegistry::count(std::string_view name, std::uint64_t n) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), n);
  } else {
    it->second += n;
  }
}

void CounterRegistry::gauge_max(std::string_view name, double value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else if (value > it->second) {
    it->second = value;
  }
}

void CounterRegistry::merge(const CounterRegistry& other) {
  for (const auto& [name, n] : other.counters_) count(name, n);
  for (const auto& [name, v] : other.gauges_) gauge_max(name, v);
}

std::uint64_t CounterRegistry::counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

JsonValue CounterRegistry::dump() const {
  JsonObject counters;
  for (const auto& [name, n] : counters_) {
    counters.emplace(name, static_cast<double>(n));
  }
  JsonObject gauges;
  for (const auto& [name, v] : gauges_) gauges.emplace(name, v);
  JsonObject root;
  root.emplace("counters", std::move(counters));
  root.emplace("gauges", std::move(gauges));
  return root;
}

CountersScope::CountersScope(CounterRegistry* registry)
    : previous_(detail::t_active_counters) {
  detail::t_active_counters = registry;
}

CountersScope::~CountersScope() { detail::t_active_counters = previous_; }

}  // namespace grefar::obs

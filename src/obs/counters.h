// Counters & gauges: the numeric half of the observability layer.
//
// A CounterRegistry is a named bag of plain (non-atomic) uint64 counters and
// double max-gauges. Instrumented code never holds a registry directly; it
// calls the free functions obs::count() / obs::gauge_max(), which consult a
// thread-local "active registry" pointer. When no registry is active (the
// default) an instrumentation site costs one thread-local load and a
// predictable branch — nothing else — so the hooks stay compiled into
// Release hot paths.
//
// Determinism contract: counters are sums and gauges are maxes, both
// order-insensitive, and the parallel loop (src/parallel/thread_pool.cc)
// gives every task its own registry and merges them into the parent at join
// in task order. Counter totals are therefore bit-identical at any --jobs
// value — the same discipline the sweep metrics follow.
//
// Hot-loop sites should accumulate locally and flush once per solve
// (obs::count("lp.pivots", n) at the end, not one call per pivot); the
// registry lookup is a string map probe, cheap per solve but not per
// iteration.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "util/json.h"

namespace grefar::obs {

/// Named uint64 counters (summed on merge) and double gauges (maxed on
/// merge). Not thread-safe: one registry belongs to one thread at a time.
class CounterRegistry {
 public:
  /// Adds `n` to counter `name` (creating it at zero).
  void count(std::string_view name, std::uint64_t n = 1);

  /// Raises gauge `name` to at least `value` (creating it at `value`).
  void gauge_max(std::string_view name, double value);

  /// Sums counters and maxes gauges from `other` into this registry.
  void merge(const CounterRegistry& other);

  bool empty() const { return counters_.empty() && gauges_.empty(); }

  /// Value of a counter (0 when absent).
  std::uint64_t counter(std::string_view name) const;

  const std::map<std::string, std::uint64_t, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, double, std::less<>>& gauges() const { return gauges_; }

  /// {"counters": {name: n, ...}, "gauges": {name: v, ...}} — the bench
  /// harness prints this as the --counters JSON block.
  JsonValue dump() const;

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
};

namespace detail {
// Inline thread_local so active_counters() compiles down to one TLS load at
// every instrumentation site instead of an out-of-line call — the whole
// "near-zero when off" promise rests on this.
inline thread_local CounterRegistry* t_active_counters = nullptr;
}  // namespace detail

/// The calling thread's active registry (nullptr = instrumentation off).
inline CounterRegistry* active_counters() { return detail::t_active_counters; }

/// RAII activation: installs `registry` (may be nullptr) as the calling
/// thread's active registry for the scope's lifetime, restoring the previous
/// one on destruction. Scopes nest.
class CountersScope {
 public:
  explicit CountersScope(CounterRegistry* registry);
  ~CountersScope();
  CountersScope(const CountersScope&) = delete;
  CountersScope& operator=(const CountersScope&) = delete;

 private:
  CounterRegistry* previous_;
};

/// Instrumentation entry points: no-ops (one TL load + branch) when no
/// registry is active on this thread.
inline void count(std::string_view name, std::uint64_t n = 1) {
  if (CounterRegistry* r = active_counters()) r->count(name, n);
}

inline void gauge_max(std::string_view name, double value) {
  if (CounterRegistry* r = active_counters()) r->gauge_max(name, value);
}

/// True when a registry is active (lets call sites skip building inputs).
inline bool counting() { return active_counters() != nullptr; }

}  // namespace grefar::obs

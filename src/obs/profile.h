// Scoped profiling: per-phase wall-time breakdowns.
//
// A ProfileRegistry accumulates (calls, total nanoseconds) per named phase.
// Activation mirrors the counter registry: a thread-local pointer installed
// by ProfileScope; when none is active a ScopedTimer costs one thread-local
// load and a branch — the steady_clock is only read while profiling is on,
// so the tracing-off hot path never touches the clock.
//
// Wall times are not deterministic (only the counter registry promises
// bit-identical totals across --jobs values); the parallel runner still
// merges per-task profiles at join so a sweep's breakdown covers every leg.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace grefar::obs {

class ProfileRegistry {
 public:
  struct Phase {
    std::uint64_t calls = 0;
    double total_ns = 0.0;
  };

  void record(std::string_view name, double ns, std::uint64_t calls = 1);
  void merge(const ProfileRegistry& other);
  bool empty() const { return phases_.empty(); }
  void clear() { phases_.clear(); }

  const std::map<std::string, Phase, std::less<>>& phases() const { return phases_; }

  /// Aligned table (phase | calls | total ms | mean us), phases sorted by
  /// total time descending — rendered via stats/summary_table.
  std::string summary_table() const;

 private:
  std::map<std::string, Phase, std::less<>> phases_;
};

namespace detail {
// Inline thread_local for the same reason as the counter registry's: a
// ScopedTimer on an off path must cost a TLS load and a branch, not a call.
inline thread_local ProfileRegistry* t_active_profile = nullptr;
}  // namespace detail

/// The calling thread's active profile registry (nullptr = profiling off).
inline ProfileRegistry* active_profile() { return detail::t_active_profile; }

/// True when a registry is active (lets call sites skip building inputs and
/// gate clock reads — the off path must never touch the clock).
inline bool profiling() { return active_profile() != nullptr; }

/// Instrumentation entry point mirroring obs::count(): a no-op (one TL load
/// + branch) when no registry is active. This — not a raw registry pointer —
/// is how instrumented code outside src/obs records phase times; the
/// grefar-counter-discipline check (DESIGN.md §13) enforces it.
inline void record(std::string_view name, double ns, std::uint64_t calls = 1) {
  if (ProfileRegistry* r = active_profile()) r->record(name, ns, calls);
}

/// RAII activation, nesting like CountersScope.
class ProfileScope {
 public:
  explicit ProfileScope(ProfileRegistry* registry);
  ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  ProfileRegistry* previous_;
};

/// Times one scope under `name` (a string literal; the pointer must outlive
/// the timer). When profiling is off neither clock read happens.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name)
      : registry_(active_profile()), name_(name) {
    if (registry_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (registry_ != nullptr) {
      auto ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
      registry_->record(name_, ns);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  ProfileRegistry* registry_;
  const char* name_;
  std::chrono::steady_clock::time_point start_;
};

/// Accumulating lap timer for tight loops where a ScopedTimer pair per
/// iteration is measurable overhead even when profiling is off (see the
/// counters.h hot-loop rule): the caller laps around each phase, accumulates
/// the nanoseconds into locals, and flushes once per solve via obs::record().
/// Both clock reads live here, behind the enabled() gate, so instrumented
/// solver code contains no direct clock calls — which is what lets the
/// solvers carry the GREFAR_DETERMINISTIC annotation (clock reads are banned
/// there; the sanctioned profiling machinery in src/obs is the one exception,
/// and wall times are documented non-deterministic).
class PhaseClock {
 public:
  PhaseClock() : enabled_(active_profile() != nullptr) {}

  /// Profiling was active when this clock was constructed. Callers may use
  /// this to skip accumulation arithmetic entirely.
  bool enabled() const { return enabled_; }

  /// Marks the start of a phase. No-op (no clock read) when disabled.
  void start() {
    if (enabled_) start_ = std::chrono::steady_clock::now();
  }

  /// Nanoseconds since the last start(); 0.0 when disabled.
  double lap_ns() {
    if (!enabled_) return 0.0;
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace grefar::obs

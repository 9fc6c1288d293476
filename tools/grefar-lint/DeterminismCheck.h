// grefar-determinism: functions annotated GREFAR_DETERMINISTIC must be
// bit-reproducible (DESIGN.md Sec. 11: identical decisions at any --jobs
// value, and Sec. 12: sparse == dense bitwise).
//
// Flagged inside annotated functions:
//   * randomness sources: rand/srand/random/drand48 family and
//     std::random_device (seeded mt19937 streams are fine — they are not
//     reachable through these entry points);
//   * wall/CPU clock reads: time, clock, gettimeofday, clock_gettime, and
//     std::chrono::{system,steady,high_resolution}_clock::now — timing
//     belongs in src/obs behind the profiling gate (obs::PhaseClock,
//     obs::ScopedTimer), never in decision code;
//   * thread identity: std::this_thread::get_id, pthread_self, gettid;
//   * floating-point accumulation inside a range-for over an unordered
//     container: hashed iteration order is not a stable reduction order, so
//     such sums are not reproducible across libstdc++ versions or seeds.
//
// Code spelled in src/obs files is exempt: the observability layer owns the
// clocks and hides them behind the profiling gate.
#pragma once

#include "clang-tidy/ClangTidyCheck.h"

namespace clang::tidy::grefar {

class DeterminismCheck : public ClangTidyCheck {
public:
  DeterminismCheck(StringRef Name, ClangTidyContext *Context)
      : ClangTidyCheck(Name, Context) {}
  bool isLanguageVersionSupported(const LangOptions &LangOpts) const override {
    return LangOpts.CPlusPlus;
  }
  void registerMatchers(ast_matchers::MatchFinder *Finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult &Result) override;
};

}  // namespace clang::tidy::grefar

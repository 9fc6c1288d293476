// Drop-in replacement for BENCHMARK_MAIN() that stamps the *project's* build
// type into the benchmark context as "grefar_build_type".
//
// google-benchmark already reports "library_build_type", but that describes
// how the benchmark *library* was compiled (the distro package is a Debug
// build, permanently reporting "debug") and says nothing about this repo's
// code. Perf numbers from a Debug build of the schedulers are meaningless,
// so a reader of the JSON output checks this field instead.
//
// Include exactly once per benchmark binary, in place of BENCHMARK_MAIN().
#pragma once

#include <benchmark/benchmark.h>

int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("grefar_build_type", "release");
#else
  benchmark::AddCustomContext("grefar_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

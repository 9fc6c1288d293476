// Golden fingerprints: "behaviour unchanged" as a checked-in test.
//
// GoldenDecisions: each case runs a fixed scenario for kSlots slots and
// hashes, with 64-bit FNV-1a over the IEEE-754 bit patterns, the per-slot energy, fairness and
// total-queue series, the per-slot per-DC delay sums and completion counts
// (which move when routing picks different jobs even if the totals do not),
// plus the final central and DC queue lengths. The
// fingerprints are compared against decision_fingerprints.txt next to this
// file, so any change that moves a single bit of a decision fails here.
//
// GoldenBenchStdout: each case runs one paper bench binary at a short
// horizon and hashes its stdout bytes (timings go to stderr), compared
// against bench_stdout_fingerprints.txt. This covers what the decision
// series do not: delay percentiles, table formatting and the sweep specs.
// GoldenBenchTrace does the same for the --trace JSONL slot log of a traced
// greedy run (fig1_trace) and a traced SPG run (fig3_fairness), which carry
// the routing tie splits and the drift-weight census.
//
// A change that means to move either re-records both files on purpose:
//
//   ./build/tests/golden_test --update-golden
//
// and names every moved fingerprint, with the reason, in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "core/grefar.h"
#include "scenario/paper_scenario.h"
#include "scenario/serve_scenario.h"

namespace grefar {
namespace {

constexpr std::int64_t kSlots = 300;

struct GoldenCase {
  const char* name;
  std::function<PaperScenario()> scenario;
  double V;
  double beta;
};

const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases = {
      {"serve_pgd", [] { return make_serve_scenario(8, 96, 1); }, 4.0, 0.5},
      {"paper_greedy", [] { return make_paper_scenario(42); }, 7.5, 0.0},
      {"paper_pgd", [] { return make_paper_scenario(42); }, 7.5, 100.0},
  };
  return cases;
}

/// 64-bit FNV-1a over the little-endian bytes of each value's bit pattern.
class Fnv1a {
 public:
  void add(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 8; ++b) add_byte((bits >> (8 * b)) & 0xffu);
  }
  void add_byte(std::uint64_t byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t hash_series(const std::vector<double>& values) {
  Fnv1a h;
  for (double x : values) h.add(x);
  return h.value();
}

using Fingerprints = std::map<std::string, std::uint64_t>;

/// Runs one case (GreFar picks greedy at beta = 0 and PGD above) and adds
/// its five fingerprints to `out`, keyed "<case>.<series>".
void fingerprint_case(const GoldenCase& c, Fingerprints& out) {
  PaperScenario scenario = c.scenario();
  auto scheduler = std::make_shared<GreFarScheduler>(scenario.config,
                                                     paper_grefar_params(c.V, c.beta));
  auto engine = run_scenario(scenario, std::move(scheduler), kSlots);
  const SimMetrics& m = engine->metrics();
  const std::string prefix = std::string(c.name) + ".";
  out[prefix + "energy"] = hash_series(m.energy_cost.values());
  out[prefix + "fairness"] = hash_series(m.fairness.values());
  out[prefix + "total_queue"] = hash_series(m.total_queue_jobs.values());
  Fnv1a delay;
  for (std::size_t t = 0; t < m.energy_cost.size(); ++t) {
    for (std::size_t i = 0; i < m.dc_delay_sum.size(); ++i) {
      delay.add(m.dc_delay_sum[i].values()[t]);
      delay.add(m.dc_completions[i].values()[t]);
    }
  }
  out[prefix + "delay"] = delay.value();
  Fnv1a queues;
  const ClusterConfig& config = engine->config();
  for (std::size_t j = 0; j < config.num_job_types(); ++j) {
    queues.add(engine->central_queue_length(j));
  }
  for (std::size_t i = 0; i < config.num_data_centers(); ++i) {
    for (std::size_t j = 0; j < config.num_job_types(); ++j) {
      queues.add(engine->dc_queue_length(i, j));
    }
  }
  out[prefix + "final_queues"] = queues.value();
}

std::string hex(std::uint64_t x) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

/// Reads "<key> <16 hex digits>" lines; '#' starts a comment line.
Fingerprints read_golden(const std::string& path) {
  Fingerprints golden;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, value;
    if (fields >> key >> value) golden[key] = std::stoull(value, nullptr, 16);
  }
  return golden;
}

bool write_golden(const std::string& path, const std::string& header,
                  const Fingerprints& fingerprints) {
  std::ofstream out(path);
  out << header
      << " Re-record only on purpose, with\n"
         "#   golden_test --update-golden\n"
         "# and name every moved line, with the reason, in CHANGES.md.\n";
  for (const auto& [key, value] : fingerprints) out << key << ' ' << hex(value) << '\n';
  return static_cast<bool>(out);
}

std::string decision_header() {
  return "# Golden decision fingerprints (tests/golden/golden_test.cc): 64-bit\n"
         "# FNV-1a over the bit patterns of each case's per-slot series and final\n"
         "# queue lengths after " +
         std::to_string(kSlots) + " slots.";
}

const char* const kBenchHeader =
    "# Golden bench stdout fingerprints (tests/golden/golden_test.cc): 64-bit\n"
    "# FNV-1a over the stdout bytes of each paper bench run (.stdout) and\n"
    "# over the --trace JSONL of each traced run (.trace).";

struct BenchCase {
  const char* binary;  // under the bench output dir
  const char* flags;
};

const std::vector<BenchCase>& bench_cases() {
  // --jobs 1 keeps ctest -j from oversubscribing; every one of these
  // benches prints the same bytes at any --jobs (CI diffs them).
  static const std::vector<BenchCase> cases = {
      {"fig2_v_sweep", "--horizon 120 --jobs 1"},
      {"robustness_seeds", "--horizon 100 --num-seeds 4 --jobs 1"},
      {"admission_ablation", "--horizon 120 --audit=throw --jobs 1"},
      {"theorem1_bounds", "--horizon 120 --jobs 1"},
      {"fig3_fairness", "--horizon 120 --jobs 1"},
      {"fig4_vs_always", "--horizon 120 --jobs 1"},
      {"intext_work_distribution", "--horizon 120 --jobs 1"},
      {"ablation_tariffs", "--horizon 120 --jobs 1"},
      {"fig5_snapshot", "--horizon 120 --day-start 72 --window 24 --jobs 1"},
  };
  return cases;
}

/// Benches whose --trace JSONL is fingerprinted (stdout names the trace
/// path, so it is not). A sweep traces its leg 0, so fig3 runs beta = 100
/// alone to trace an SPG run; fig1's reference run is greedy.
const std::vector<BenchCase>& trace_cases() {
  static const std::vector<BenchCase> cases = {
      {"fig1_trace", "--horizon 72 --jobs 1"},
      {"fig3_fairness", "--horizon 120 --beta 100 --jobs 1"},
  };
  return cases;
}

/// The quoted binary path and its flags. Appended piece by piece: g++ 12
/// reports a false -Wrestrict on the inlined `"'" + std::string` form.
std::string bench_command(const BenchCase& c) {
  std::string command = "'";
  command += GREFAR_BENCH_DIR;
  command += '/';
  command += c.binary;
  command += "' ";
  command += c.flags;
  return command;
}

/// FNV-1a over every byte `in` yields until EOF.
std::uint64_t hash_stream(FILE* in) {
  Fnv1a h;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, in)) > 0) {
    for (std::size_t b = 0; b < n; ++b) h.add_byte(static_cast<unsigned char>(buf[b]));
  }
  return h.value();
}

/// Runs one bench and adds the FNV-1a of its stdout to `out`, keyed
/// "<bench>.stdout". Fails (returns false) when the binary does not exit 0.
bool fingerprint_bench(const BenchCase& c, Fingerprints& out) {
  FILE* pipe = popen((bench_command(c) + " 2>/dev/null").c_str(), "r");
  if (pipe == nullptr) return false;
  const std::uint64_t h = hash_stream(pipe);
  if (pclose(pipe) != 0) return false;
  out[std::string(c.binary) + ".stdout"] = h;
  return true;
}

/// Runs one bench with --trace into a temporary file and adds the FNV-1a of
/// the JSONL it wrote to `out`, keyed "<bench>.trace".
bool fingerprint_trace(const BenchCase& c, const std::string& tmp_dir,
                       Fingerprints& out) {
  const std::string path = tmp_dir + "golden_" + c.binary + ".jsonl";
  const std::string command =
      bench_command(c) + " --trace '" + path + "' >/dev/null 2>&1";
  if (std::system(command.c_str()) != 0) return false;
  FILE* trace = std::fopen(path.c_str(), "rb");
  if (trace == nullptr) return false;
  out[std::string(c.binary) + ".trace"] = hash_stream(trace);
  std::fclose(trace);
  std::remove(path.c_str());
  return true;
}

void expect_matches(const Fingerprints& measured, const char* golden_file) {
  const Fingerprints golden = read_golden(golden_file);
  ASSERT_FALSE(golden.empty()) << "no fingerprints in " << golden_file;
  for (const auto& [key, value] : measured) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "no golden fingerprint for " << key;
    EXPECT_EQ(hex(value), hex(it->second))
        << key << " moved; if the change is meant to alter it, re-record "
        << "with golden_test --update-golden and say why in CHANGES.md";
  }
}

class GoldenDecisions : public testing::TestWithParam<std::size_t> {};

TEST_P(GoldenDecisions, MatchesCheckedInFingerprints) {
  Fingerprints measured;
  fingerprint_case(golden_cases()[GetParam()], measured);
  expect_matches(measured, GREFAR_GOLDEN_FILE);
}

INSTANTIATE_TEST_SUITE_P(Cases, GoldenDecisions,
                         testing::Range<std::size_t>(0, golden_cases().size()),
                         [](const testing::TestParamInfo<std::size_t>& param) {
                           return std::string(golden_cases()[param.param].name);
                         });

class GoldenBenchStdout : public testing::TestWithParam<std::size_t> {};

TEST_P(GoldenBenchStdout, MatchesCheckedInFingerprints) {
  const BenchCase& c = bench_cases()[GetParam()];
  Fingerprints measured;
  ASSERT_TRUE(fingerprint_bench(c, measured)) << c.binary << " " << c.flags << " failed";
  expect_matches(measured, GREFAR_GOLDEN_BENCH_FILE);
}

INSTANTIATE_TEST_SUITE_P(Benches, GoldenBenchStdout,
                         testing::Range<std::size_t>(0, bench_cases().size()),
                         [](const testing::TestParamInfo<std::size_t>& param) {
                           return std::string(bench_cases()[param.param].binary);
                         });

class GoldenBenchTrace : public testing::TestWithParam<std::size_t> {};

TEST_P(GoldenBenchTrace, MatchesCheckedInFingerprints) {
  const BenchCase& c = trace_cases()[GetParam()];
  Fingerprints measured;
  ASSERT_TRUE(fingerprint_trace(c, testing::TempDir(), measured))
      << c.binary << " " << c.flags << " --trace failed";
  expect_matches(measured, GREFAR_GOLDEN_BENCH_FILE);
}

INSTANTIATE_TEST_SUITE_P(Benches, GoldenBenchTrace,
                         testing::Range<std::size_t>(0, trace_cases().size()),
                         [](const testing::TestParamInfo<std::size_t>& param) {
                           return std::string(trace_cases()[param.param].binary);
                         });

/// Runs `c` with stdout discarded; returns its exit status and stderr.
std::pair<int, std::string> run_for_stderr(const BenchCase& c) {
  const std::string command = bench_command(c) + " 2>&1 >/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return {-1, "popen failed: " + command};
  std::string err;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) err.append(buf, n);
  return {pclose(pipe), err};
}

// A snapshot window past the end of the run is a usage error that names
// the options, not a ContractViolation from indexing past the series.
TEST(BenchUsage, Fig5RejectsSnapshotPastHorizon) {
  const auto [status, err] = run_for_stderr({"fig5_snapshot", "--horizon 300 --jobs 1"});
  EXPECT_NE(status, 0);
  EXPECT_NE(err.find("error: "), std::string::npos) << err;
  for (const char* option : {"--day-start", "--window", "--horizon"}) {
    EXPECT_NE(err.find(option), std::string::npos) << option << " not named in:\n" << err;
  }
  EXPECT_EQ(err.find("ContractViolation"), std::string::npos) << err;
}

// A size below 1 is a usage error that names the option, rejected before
// any cast to an unsigned size or allocation: not a ContractViolation from
// inside the run, nor a -1 wrapped to SIZE_MAX.
TEST(BenchUsage, ServeLatencyRejectsNonPositiveSizes) {
  for (const char* option : {"--horizon", "--dcs", "--types", "--queue-depth"}) {
    for (const char* value : {"0", "-1"}) {
      SCOPED_TRACE(std::string(option) + " " + value);
      // Small valid sizes first; the option under test overrides its own.
      const std::string flags = "--horizon 2 --dcs 1 --types 1 --slot-log off "
                                "--trace-dir '" + ::testing::TempDir() + "' " +
                                option + " " + value;
      const auto [status, err] = run_for_stderr({"serve_latency", flags.c_str()});
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1) << "status " << status;
      EXPECT_NE(err.find(std::string("error: ") + option), std::string::npos) << err;
      EXPECT_EQ(err.find("ContractViolation"), std::string::npos) << err;
    }
  }
}

// A negative worker count is a usage error, not "all usable CPUs".
TEST(BenchUsage, SweepBenchRejectsNegativeJobs) {
  const auto [status, err] = run_for_stderr({"fig3_fairness", "--horizon 2 --jobs -1"});
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1) << "status " << status;
  EXPECT_NE(err.find("error: --jobs"), std::string::npos) << err;
}

}  // namespace
}  // namespace grefar

int main(int argc, char** argv) {
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--update-golden") == 0) {
      grefar::Fingerprints decisions;
      for (const auto& c : grefar::golden_cases()) grefar::fingerprint_case(c, decisions);
      grefar::Fingerprints benches;
      for (const auto& c : grefar::bench_cases()) {
        if (!grefar::fingerprint_bench(c, benches)) {
          std::fprintf(stderr, "%s %s failed\n", c.binary, c.flags);
          return 1;
        }
      }
      for (const auto& c : grefar::trace_cases()) {
        if (!grefar::fingerprint_trace(c, testing::TempDir(), benches)) {
          std::fprintf(stderr, "%s %s --trace failed\n", c.binary, c.flags);
          return 1;
        }
      }
      if (!grefar::write_golden(GREFAR_GOLDEN_FILE, grefar::decision_header(),
                                decisions) ||
          !grefar::write_golden(GREFAR_GOLDEN_BENCH_FILE, grefar::kBenchHeader,
                                benches)) {
        std::fprintf(stderr, "cannot write the golden files\n");
        return 1;
      }
      std::printf("wrote %zu fingerprints to %s and %zu to %s\n", decisions.size(),
                  GREFAR_GOLDEN_FILE, benches.size(), GREFAR_GOLDEN_BENCH_FILE);
      return 0;
    }
  }
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

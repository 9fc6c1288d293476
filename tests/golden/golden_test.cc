// Golden decision fingerprints: "decisions unchanged" as a checked-in test.
//
// Each case runs a fixed scenario for kSlots slots and hashes, with 64-bit
// FNV-1a over the IEEE-754 bit patterns, the per-slot energy, fairness and
// total-queue series, the per-slot per-DC delay sums and completion counts
// (which move when routing picks different jobs even if the totals do not),
// plus the final central and DC queue lengths. The
// fingerprints are compared against decision_fingerprints.txt next to this
// file, so any change that moves a single bit of a decision fails here.
//
// A change that means to move decisions re-records the file on purpose:
//
//   ./build/tests/golden_test --update-golden
//
// and names every moved fingerprint, with the reason, in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

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
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (bits >> (8 * b)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
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

bool write_golden(const std::string& path, const Fingerprints& fingerprints) {
  std::ofstream out(path);
  out << "# Golden decision fingerprints (tests/golden/golden_test.cc): 64-bit\n"
         "# FNV-1a over the bit patterns of each case's per-slot series and final\n"
         "# queue lengths after "
      << kSlots
      << " slots. Re-record only on purpose, with\n"
         "#   golden_test --update-golden\n"
         "# and name every moved line, with the reason, in CHANGES.md.\n";
  for (const auto& [key, value] : fingerprints) out << key << ' ' << hex(value) << '\n';
  return static_cast<bool>(out);
}

class GoldenDecisions : public testing::TestWithParam<std::size_t> {};

TEST_P(GoldenDecisions, MatchesCheckedInFingerprints) {
  const GoldenCase& c = golden_cases()[GetParam()];
  const Fingerprints golden = read_golden(GREFAR_GOLDEN_FILE);
  ASSERT_FALSE(golden.empty()) << "no fingerprints in " << GREFAR_GOLDEN_FILE;
  Fingerprints measured;
  fingerprint_case(c, measured);
  for (const auto& [key, value] : measured) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "no golden fingerprint for " << key;
    EXPECT_EQ(hex(value), hex(it->second))
        << key << " moved; if the change is meant to alter decisions, re-record "
        << "with golden_test --update-golden and say why in CHANGES.md";
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, GoldenDecisions,
                         testing::Range<std::size_t>(0, golden_cases().size()),
                         [](const testing::TestParamInfo<std::size_t>& param) {
                           return std::string(golden_cases()[param.param].name);
                         });

}  // namespace
}  // namespace grefar

int main(int argc, char** argv) {
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--update-golden") == 0) {
      grefar::Fingerprints all;
      for (const auto& c : grefar::golden_cases()) grefar::fingerprint_case(c, all);
      if (!grefar::write_golden(GREFAR_GOLDEN_FILE, all)) {
        std::fprintf(stderr, "cannot write %s\n", GREFAR_GOLDEN_FILE);
        return 1;
      }
      std::printf("wrote %zu fingerprints to %s\n", all.size(), GREFAR_GOLDEN_FILE);
      return 0;
    }
  }
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

// Million-account scale smoke (DESIGN.md §12): the default LargeScaleOptions
// scenario — a 10 x 100 x 1000 AccountTree (10^6 leaf accounts, one job type
// per leaf) with Zipf activity of ~10^3 draws per slot — run end-to-end
// through the job-level engine, twice:
//
//   1. the *production* leg: GreFar decides over the active-type columns
//      the engine's hint lists, with the per-slot InvariantAuditor attached
//      in throw mode (and the tracer, when --trace is given), and
//   2. the *all-types* leg: the same scheduler behind HintStripper, which
//      hands it every observation without the hint, so it decides over all
//      J columns. This leg is the oracle.
//
// The two legs must agree bitwise on every per-slot metric and on the
// cumulative per-account work — the engine-level statement of the
// active columns == all columns contract at M = 10^6. The process exits
// nonzero on any invariant violation or metric divergence. It prints its
// own getrusage peak RSS (portable to hosts without GNU time); CI parses
// that line and asserts it stays under 1 GB.
#include <sys/resource.h>

#include <chrono>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "check/invariant_auditor.h"
#include "common/experiment.h"
#include "common/hint_stripper.h"
#include "core/grefar.h"
#include "scenario/large_scale.h"
#include "sim/engine.h"

namespace {

using namespace grefar;

/// Bitwise comparison of the per-slot series and cumulative account work; any
/// divergence between the production and all-types legs is a contract
/// break, not noise.
bool runs_bitwise_equal(const SimMetrics& a, const SimMetrics& b) {
  bool ok = a.slots() == b.slots();
  for (std::size_t t = 0; ok && t < a.slots(); ++t) {
    ok = a.energy_cost.values()[t] == b.energy_cost.values()[t] &&
         a.fairness.values()[t] == b.fairness.values()[t] &&
         a.total_queue_jobs.values()[t] == b.total_queue_jobs.values()[t];
    if (!ok) std::cerr << "metric divergence at slot " << t << "\n";
  }
  if (ok && a.account_work_total.size() != b.account_work_total.size()) ok = false;
  for (std::size_t m = 0; ok && m < a.account_work_total.size(); ++m) {
    ok = a.account_work_total[m] == b.account_work_total[m];
    if (!ok) std::cerr << "account work divergence at account " << m << "\n";
  }
  return ok;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace

int main(int argc, char** argv) {
  using namespace grefar::bench;

  CliParser cli("large_scale_smoke",
                "million-account scale smoke: audited production leg vs "
                "all-types leg, bitwise-compared");
  add_common_options(cli, /*default_horizon=*/"48");
  cli.add_option("V", "2.0", "GreFar cost-delay parameter");
  cli.add_option("beta", "0.5", "GreFar energy-fairness parameter");
  cli.add_option("branching", "10,100,1000", "account-tree branching factors");
  cli.add_option("account-level", "2",
                 "tree level whose nodes become solver accounts");
  cli.add_option("draws", "1000", "Zipf arrival draws per slot");
  parse_or_exit(cli, argc, argv);
  const auto horizon = cli.get_int("horizon");

  LargeScaleOptions opt;
  opt.branching.clear();
  for (double b : cli.get_double_list("branching")) {
    opt.branching.push_back(static_cast<std::size_t>(b));
  }
  opt.account_level = static_cast<std::size_t>(int_at_least(cli, "account-level", 0));
  opt.draws_per_slot = static_cast<std::size_t>(int_at_least(cli, "draws", 0));
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  // This binary exists to audit at scale, so "auto" means throw even in
  // Release; --audit=off runs the production leg alone, unaudited (timing
  // runs).
  AuditMode audit = audit_from_cli(cli);
  if (audit == AuditMode::kAuto) audit = AuditMode::kThrow;

  ObsSession obs(cli);
  print_header("Million-account scale smoke", "DESIGN.md §12 scale gate",
               opt.seed, horizon);

  const auto build_start = std::chrono::steady_clock::now();
  LargeScaleScenario scenario = make_large_scale_scenario(opt);
  const double build_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                build_start)
          .count();
  std::cout << "scenario: " << scenario.config->num_accounts() << " accounts, "
            << scenario.config->num_job_types() << " job types, "
            << scenario.config->num_data_centers() << " DCs, "
            << opt.draws_per_slot << " draws/slot (built in " << build_ms
            << " ms)\n";

  GreFarParams params =
      large_scale_grefar_params(cli.get_double("V"), cli.get_double("beta"));

  // Runs one leg and hands back its metrics; the engine (and its ~O(M)
  // buffers) is destroyed before the next leg builds, so peak RSS reflects
  // one live stack, which is what the CI bound measures.
  auto run_leg = [&](bool production) -> std::optional<SimMetrics> {
    std::shared_ptr<Scheduler> scheduler =
        std::make_shared<GreFarScheduler>(scenario.config, params);
    if (!production) scheduler = std::make_shared<HintStripper>(std::move(scheduler));
    auto engine = std::make_unique<SimulationEngine>(
        scenario.config, scenario.prices, scenario.availability,
        scenario.arrivals, std::move(scheduler));
    std::shared_ptr<InvariantAuditor> auditor;
    if (production && audit != AuditMode::kOff) {
      InvariantAuditorOptions audit_opts;
      audit_opts.throw_on_violation = audit == AuditMode::kThrow;
      audit_opts.expect_queue_bounded_ask = true;
      audit_opts.r_max = params.r_max;
      audit_opts.h_max = params.h_max;
      auditor = std::make_shared<InvariantAuditor>(scenario.config, audit_opts);
      engine->set_inspector(auditor);
      obs.attach_tracer(*engine);
    }
    const auto start = std::chrono::steady_clock::now();
    engine->run(horizon);
    const double leg_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  start)
            .count();
    std::cout << (production ? "production leg: " : "all-types leg:  ") << leg_ms
              << " ms for " << horizon << " slots ("
              << leg_ms / static_cast<double>(horizon) << " ms/slot), peak RSS "
              << peak_rss_mb() << " MB\n";
    if (auditor != nullptr) {
      std::cout << "audit: " << auditor->slots_audited() << " slots, "
                << auditor->total_violations() << " violations\n";
      if (!auditor->ok()) {
        std::cout << auditor->report() << "\nAUDIT FAILED\n";
        return std::nullopt;
      }
    }
    return engine->metrics();
  };

  std::optional<SimMetrics> production = run_leg(/*production=*/true);
  if (!production.has_value()) return 1;
  if (audit == AuditMode::kOff) {
    std::cout << "summary (production leg):\n"
              << production->summary_json().dump(2) << "\n"
              << "scale smoke OK (audit off: production leg only)\n";
    obs.finish();
    return 0;
  }
  std::optional<SimMetrics> all_types = run_leg(/*production=*/false);
  if (!all_types.has_value()) return 1;
  if (!runs_bitwise_equal(*production, *all_types)) {
    std::cout << "SCALE SMOKE FAILED: production leg diverges from the all-types "
                 "leg\n";
    return 1;
  }

  std::cout << "summary (production leg):\n"
            << production->summary_json().dump(2) << "\n"
            << "scale smoke OK: audit clean and active columns == all columns "
               "bitwise at M = "
            << scenario.config->num_accounts() << "\n";
  obs.finish();
  return 0;
}

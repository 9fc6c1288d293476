// Audit driver: every scheduler in the library runs the paper scenario with
// the per-slot InvariantAuditor attached, and the process exits nonzero if
// any slot of any run violates an invariant (check/invariant_auditor.h for
// the full set: queue recurrences, routing bounds, the capacity chain,
// eligibility masks, work conservation, energy/fairness accounting).
//
// This is the CI end-to-end correctness gate — a machine-checked version of
// "all the figures still mean what they claim". Run it Debug for the extra
// libstdc++ assertions; the auditor itself works in any build type.
#include <iostream>
#include <memory>

#include "baselines/baselines.h"
#include "check/invariant_auditor.h"
#include "common/experiment.h"
#include "core/grefar.h"
#include "lookahead/mpc.h"
#include "stats/summary_table.h"

int main(int argc, char** argv) {
  using namespace grefar;
  using namespace grefar::bench;

  CliParser cli("audit_scenario",
                "run every scheduler under the per-slot invariant auditor");
  add_common_options(cli);
  cli.add_option("V", "7.5", "GreFar cost-delay parameter");
  cli.add_option("beta", "100", "GreFar energy-fairness parameter (PGD leg)");
  cli.add_option("mpc-window", "4", "MPC lookahead window (slots)");
  parse_or_exit(cli, argc, argv);
  const auto horizon = cli.get_int("horizon");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double V = cli.get_double("V");
  const double beta = cli.get_double("beta");
  const auto mpc_window = cli.get_int("mpc-window");
  const auto jobs = jobs_from_cli(cli);
  // The driver exists to audit: kRecord collects every violation for the
  // report below; --audit=throw aborts a leg on its first violation instead.
  AuditMode audit = audit_from_cli(cli);
  if (audit != AuditMode::kThrow) audit = AuditMode::kRecord;

  ObsSession obs(cli);

  print_header("Invariant audit: all schedulers, paper scenario",
               "correctness gate (not a paper figure)", seed, horizon);

  struct Leg {
    std::string label;
    std::function<std::shared_ptr<Scheduler>(const PaperScenario&)> make;
  };
  std::vector<Leg> legs;
  // GreFar runs the greedy at beta = 0 and SPG above.
  auto add_grefar = [&](const std::string& label, double b) {
    legs.push_back({label, [=](const PaperScenario& s) -> std::shared_ptr<Scheduler> {
                      return std::make_shared<GreFarScheduler>(s.config,
                                                               paper_grefar_params(V, b));
                    }});
  };
  add_grefar("GreFar greedy", 0.0);
  add_grefar("GreFar PGD", beta);
  legs.push_back({"Always", [](const PaperScenario& s) -> std::shared_ptr<Scheduler> {
                    return std::make_shared<AlwaysScheduler>(s.config);
                  }});
  legs.push_back(
      {"CheapestFirst", [](const PaperScenario& s) -> std::shared_ptr<Scheduler> {
         return std::make_shared<CheapestFirstScheduler>(s.config);
       }});
  legs.push_back({"Random", [seed](const PaperScenario& s) -> std::shared_ptr<Scheduler> {
                    return std::make_shared<RandomScheduler>(s.config, seed ^ 0xF00DULL);
                  }});
  legs.push_back({"LocalOnly", [](const PaperScenario& s) -> std::shared_ptr<Scheduler> {
                    return std::make_shared<LocalOnlyScheduler>(s.config);
                  }});
  legs.push_back(
      {"PriceThreshold", [](const PaperScenario& s) -> std::shared_ptr<Scheduler> {
         return std::make_shared<PriceThresholdScheduler>(s.config, 0.45);
       }});
  legs.push_back(
      {"MPC", [mpc_window](const PaperScenario& s) -> std::shared_ptr<Scheduler> {
         MpcParams p;
         p.window = mpc_window;
         return std::make_shared<MpcScheduler>(s.config, s.prices, s.availability,
                                               s.arrivals, p);
       }});

  auto sweep = run_sweep(legs.size(), horizon, jobs, [&](std::size_t leg) {
    PaperScenario scenario = make_paper_scenario(seed);
    return make_scenario_engine(scenario, legs[leg].make(scenario), audit);
  }, &obs);

  SummaryTable table({"scheduler", "slots audited", "violations", "leg ms"});
  bool clean = true;
  for (std::size_t leg = 0; leg < legs.size(); ++leg) {
    const auto* auditor =
        dynamic_cast<const InvariantAuditor*>(sweep.engines[leg]->inspector());
    if (auditor == nullptr) {
      std::cerr << "error: no auditor attached to leg " << legs[leg].label << "\n";
      return 2;
    }
    table.add_row(legs[leg].label,
                  {static_cast<double>(auditor->slots_audited()),
                   static_cast<double>(auditor->total_violations()),
                   sweep.leg_ms[leg]});
    if (!auditor->ok()) {
      clean = false;
      std::cout << "-- " << legs[leg].label << " --\n" << auditor->report() << "\n";
    }
  }
  std::cout << table.render() << "\n";

  if (!clean) {
    std::cout << "AUDIT FAILED: invariant violations detected (see above)\n";
    return 1;
  }
  std::cout << "audit clean: every slot of every scheduler satisfied all "
               "invariants\n";
  obs.finish();
  return 0;
}

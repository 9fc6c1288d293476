// Audit driver: every scheduler in the library runs the paper scenario with
// the per-slot InvariantAuditor attached, and the process exits nonzero if
// any slot of any run violates an invariant (check/invariant_auditor.h for
// the full set: queue recurrences, routing bounds, the capacity chain,
// eligibility masks, work conservation, energy/fairness accounting).
//
// This is the CI end-to-end correctness gate — a machine-checked version of
// "all the figures still mean what they claim". Run it Debug for the extra
// libstdc++ assertions; the auditor itself works in any build type.
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

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

  // GreFar legs ride the sweep engine's scheduler arena; every other
  // scheduler is built per leg from the shared materialized scenario, so
  // MPC forecasts from its tables.
  struct Leg {
    std::string label;
    std::optional<GreFarParams> grefar;
    std::function<std::shared_ptr<Scheduler>(const sweep::ScenarioArtifacts&)> make;
  };
  std::vector<Leg> legs;
  // GreFar runs the greedy at beta = 0 and SPG above.
  legs.push_back({"GreFar greedy", paper_grefar_params(V, 0.0), nullptr});
  legs.push_back({"GreFar PGD", paper_grefar_params(V, beta), nullptr});
  legs.push_back({"Always", std::nullopt,
                  [](const sweep::ScenarioArtifacts& a) -> std::shared_ptr<Scheduler> {
                    return std::make_shared<AlwaysScheduler>(*a.config);
                  }});
  legs.push_back({"CheapestFirst", std::nullopt,
                  [](const sweep::ScenarioArtifacts& a) -> std::shared_ptr<Scheduler> {
                    return std::make_shared<CheapestFirstScheduler>(*a.config);
                  }});
  legs.push_back({"Random", std::nullopt,
                  [seed](const sweep::ScenarioArtifacts& a) -> std::shared_ptr<Scheduler> {
                    return std::make_shared<RandomScheduler>(*a.config, seed ^ 0xF00DULL);
                  }});
  legs.push_back({"LocalOnly", std::nullopt,
                  [](const sweep::ScenarioArtifacts& a) -> std::shared_ptr<Scheduler> {
                    return std::make_shared<LocalOnlyScheduler>(*a.config);
                  }});
  legs.push_back({"PriceThreshold", std::nullopt,
                  [](const sweep::ScenarioArtifacts& a) -> std::shared_ptr<Scheduler> {
                    return std::make_shared<PriceThresholdScheduler>(*a.config, 0.45);
                  }});
  legs.push_back({"MPC", std::nullopt,
                  [mpc_window](const sweep::ScenarioArtifacts& a)
                      -> std::shared_ptr<Scheduler> {
                    MpcParams p;
                    p.window = mpc_window;
                    return std::make_shared<MpcScheduler>(*a.config, a.prices,
                                                          a.availability, a.arrivals, p);
                  }});

  sweep::SweepSpec spec;
  spec.axes = {{.name = "scheduler"}};
  for (const Leg& leg : legs) spec.axes[0].labels.push_back(leg.label);
  spec.horizon = horizon;
  spec.scenario = [&](const sweep::SweepPoint&) { return make_paper_scenario(seed); };
  spec.plan = [&](const sweep::SweepPoint& p) {
    sweep::LegPlan plan;
    plan.scenario_key = "paper/seed=" + std::to_string(seed);
    plan.grefar = legs[p.leg].grefar;
    plan.make_scheduler = legs[p.leg].make;
    return plan;
  };

  // The collector reads each leg's auditor before its engine moves on.
  struct LegAudit {
    bool attached = false;
    bool ok = true;
    double slots = 0.0;
    double violations = 0.0;
    std::string report;
  };
  std::vector<LegAudit> audits(legs.size());
  sweep::SweepOptions options;
  options.jobs = jobs;
  options.audit = audit;
  sweep::SweepEngine engine(options);
  const sweep::SweepRunStats stats = engine.run(
      spec,
      [&audits](std::size_t leg, SimulationEngine& e) {
        const auto* auditor = dynamic_cast<const InvariantAuditor*>(e.inspector());
        if (auditor == nullptr) return;
        audits[leg] = {true, auditor->ok(),
                       static_cast<double>(auditor->slots_audited()),
                       static_cast<double>(auditor->total_violations()),
                       auditor->ok() ? std::string() : auditor->report()};
      },
      [&obs](std::size_t leg, SimulationEngine& e) {
        if (leg == 0) obs.attach_tracer(e);
      });

  SummaryTable table({"scheduler", "slots audited", "violations", "leg ms"});
  bool clean = true;
  for (std::size_t leg = 0; leg < legs.size(); ++leg) {
    if (!audits[leg].attached) {
      std::cerr << "error: no auditor attached to leg " << legs[leg].label << "\n";
      return 2;
    }
    table.add_row(legs[leg].label,
                  {audits[leg].slots, audits[leg].violations, stats.leg_ms[leg]});
    if (!audits[leg].ok) {
      clean = false;
      std::cout << "-- " << legs[leg].label << " --\n" << audits[leg].report << "\n";
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

// Fig. 4 — "GreFar versus 'Always' with beta = 100 and V = 7.5".
//
//  (a) running-average energy cost, (b) fairness, (c) delay in DC #1.
//
// Expected shape (paper): GreFar achieves lower energy cost and better
// fairness than Always at the expense of increased delay; Always' average
// delay is ~1 slot (jobs run in the slot after arrival).
#include <iostream>
#include <memory>

#include "baselines/baselines.h"
#include "common/experiment.h"
#include "util/strings.h"
#include "core/grefar.h"
#include "stats/summary_table.h"

int main(int argc, char** argv) {
  using namespace grefar;
  using namespace grefar::bench;

  CliParser cli("fig4_vs_always", "reproduce Fig. 4 (GreFar vs Always)");
  add_common_options(cli);
  cli.add_option("V", "7.5", "GreFar cost-delay parameter");
  cli.add_option("beta", "100", "GreFar energy-fairness parameter");
  parse_or_exit(cli, argc, argv);
  const auto horizon = cli.get_int("horizon");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto csv_dir = cli.get_string("csv-dir");
  const auto svg_dir = cli.get_string("svg-dir");
  const double V = cli.get_double("V");
  const double beta = cli.get_double("beta");
  const auto jobs = jobs_from_cli(cli);
  const auto audit = audit_from_cli(cli);

  ObsSession obs(cli);

  print_header("Fig. 4: GreFar versus Always",
               "Ren, He, Xu (ICDCS'12), Fig. 4(a)-(c)", seed, horizon);

  // Leg 0 = GreFar, leg 1 = Always, both on one materialized scenario.
  sweep::SweepSpec spec;
  spec.axes = {{.name = "scheduler", .labels = {"GreFar", "Always"}}};
  spec.horizon = horizon;
  spec.scenario = [&](const sweep::SweepPoint&) { return make_paper_scenario(seed); };
  spec.plan = [&](const sweep::SweepPoint& p) {
    sweep::LegPlan plan;
    plan.scenario_key = "paper/seed=" + std::to_string(seed);
    if (p.leg == 0) {
      plan.grefar = paper_grefar_params(V, beta);
    } else {
      plan.make_scheduler = [](const sweep::ScenarioArtifacts& art) {
        return std::make_shared<AlwaysScheduler>(*art.config);
      };
    }
    return plan;
  };
  auto sweep_results = run_sweep_spec(spec, jobs, audit, &obs);

  std::vector<TimeSeries> energy, fairness, delay_dc1;
  SummaryTable summary({"scheduler", "avg energy cost", "avg fairness",
                        "avg delay DC1", "overall delay"});
  for (const auto& leg : sweep_results) {
    const auto& m = leg.metrics;
    const std::string& name = leg.scheduler_name;
    std::string label = name == "Always" ? "Always" : "GreFar";
    energy.push_back(named(m.average_energy_cost(), label));
    fairness.push_back(named(m.average_fairness(), label));
    delay_dc1.push_back(named(m.average_dc_delay(0), label));
    summary.add_row(name,
                    {m.final_average_energy_cost(), m.final_average_fairness(),
                     m.final_average_dc_delay(0), m.mean_delay()});
  }

  std::cout << render_chart("(a) Average energy cost", "cost", energy, horizon)
            << "\n"
            << render_chart("(b) Average fairness (0 is ideal)", "fairness", fairness,
                            horizon)
            << "\n"
            << render_chart("(c) Average delay in DC #1", "slots", delay_dc1, horizon)
            << "\n"
            << summary.render()
            << "\npaper shape: GreFar wins on energy cost and fairness; Always wins\n"
               "on delay (~1 slot).\n";

  maybe_write_csv(csv_dir, "fig4a_energy", energy);
  maybe_write_csv(csv_dir, "fig4b_fairness", fairness);
  maybe_write_csv(csv_dir, "fig4c_delay_dc1", delay_dc1);
  maybe_write_svg(svg_dir, "fig4a_energy", "(a) Average energy cost", "cost", energy,
                  horizon);
  maybe_write_svg(svg_dir, "fig4b_fairness", "(b) Average fairness", "fairness",
                  fairness, horizon);
  maybe_write_svg(svg_dir, "fig4c_delay_dc1", "(c) Average delay in DC #1", "slots",
                  delay_dc1, horizon);
  obs.finish();
  return 0;
}

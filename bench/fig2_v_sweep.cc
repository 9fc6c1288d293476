// Fig. 2 — "GreFar: minimize energy cost without fairness consideration
// (beta = 0)".
//
//  (a) running-average energy cost for V in {0.1, 2.5, 7.5, 20};
//  (b) running-average delay of jobs finishing in DC #1;
//  (c) running-average delay of jobs finishing in DC #2.
//
// Expected shape (paper): larger V => lower energy cost, higher delay.
#include <iostream>
#include <memory>

#include "common/experiment.h"
#include "util/strings.h"
#include "core/grefar.h"
#include "stats/summary_table.h"

int main(int argc, char** argv) {
  using namespace grefar;
  using namespace grefar::bench;

  CliParser cli("fig2_v_sweep", "reproduce Fig. 2 (V sweep, beta = 0)");
  add_common_options(cli);
  cli.add_option("V", "0.1,2.5,7.5,20", "cost-delay parameters to sweep");
  parse_or_exit(cli, argc, argv);
  const auto horizon = cli.get_int("horizon");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto csv_dir = cli.get_string("csv-dir");
  const auto svg_dir = cli.get_string("svg-dir");
  const auto v_values = cli.get_double_list("V");
  const auto jobs = jobs_from_cli(cli);
  const auto audit = audit_from_cli(cli);

  ObsSession obs(cli);

  print_header("Fig. 2: energy cost and delay vs V (beta = 0)",
               "Ren, He, Xu (ICDCS'12), Fig. 2(a)-(c)", seed, horizon);

  // One leg per V on the shared-artifact sweep engine: the paper scenario is
  // materialized once and shared read-only by every leg; each worker reuses
  // one persistent engine/scheduler across its legs (DESIGN.md §16).
  sweep::SweepSpec spec;
  spec.axes = {{.name = "V", .values = v_values}};
  spec.horizon = horizon;
  spec.scenario = [&](const sweep::SweepPoint&) { return make_paper_scenario(seed); };
  spec.plan = [&](const sweep::SweepPoint& p) {
    sweep::LegPlan plan;
    plan.scenario_key = "paper/seed=" + std::to_string(seed);
    plan.grefar = paper_grefar_params(p.value(0), 0.0);
    return plan;
  };
  auto sweep_results = run_sweep_spec(spec, jobs, audit, &obs);

  std::vector<TimeSeries> energy, delay_dc1, delay_dc2, delay_dc3;
  SummaryTable summary({"V", "avg energy cost", "avg delay DC1", "avg delay DC2",
                        "avg delay DC3", "overall delay"});

  for (std::size_t leg = 0; leg < v_values.size(); ++leg) {
    const auto& m = sweep_results[leg].metrics;
    std::string label = "V=" + format_fixed(v_values[leg], 1);
    energy.push_back(named(m.average_energy_cost(), label));
    delay_dc1.push_back(named(m.average_dc_delay(0), label));
    delay_dc2.push_back(named(m.average_dc_delay(1), label));
    delay_dc3.push_back(named(m.average_dc_delay(2), label));
    summary.add_row(label, {m.final_average_energy_cost(), m.final_average_dc_delay(0),
                            m.final_average_dc_delay(1), m.final_average_dc_delay(2),
                            m.mean_delay()});
  }

  std::cout << render_chart("(a) Average energy cost", "cost", energy, horizon)
            << "\n"
            << render_chart("(b) Average delay in DC #1", "slots", delay_dc1, horizon)
            << "\n"
            << render_chart("(c) Average delay in DC #2", "slots", delay_dc2, horizon)
            << "\n"
            << summary.render()
            << "\npaper shape: energy cost decreases with V (opportunistic use of\n"
               "cheap prices) while queueing delay increases — the O(1/V) vs O(V)\n"
               "tradeoff of Theorem 1.\n";

  maybe_write_csv(csv_dir, "fig2a_energy", energy);
  maybe_write_csv(csv_dir, "fig2b_delay_dc1", delay_dc1);
  maybe_write_csv(csv_dir, "fig2c_delay_dc2", delay_dc2);
  maybe_write_csv(csv_dir, "fig2_delay_dc3", delay_dc3);
  maybe_write_svg(svg_dir, "fig2a_energy", "(a) Average energy cost", "cost", energy,
                  horizon);
  maybe_write_svg(svg_dir, "fig2b_delay_dc1", "(b) Average delay in DC #1", "slots",
                  delay_dc1, horizon);
  maybe_write_svg(svg_dir, "fig2c_delay_dc2", "(c) Average delay in DC #2", "slots",
                  delay_dc2, horizon);
  obs.finish();
  return 0;
}

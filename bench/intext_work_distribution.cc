// In-text result (§VI-B1): with V = 7.5 and beta = 100, the average work
// per time step scheduled to data centers #1/#2/#3 is 33.967/48.502/14.770 —
// more work is processed where the energy cost per unit work is lower
// (DC2 < DC1 < DC3, see Table I).
#include <iostream>
#include <memory>

#include "baselines/baselines.h"
#include "common/experiment.h"
#include "util/strings.h"
#include "core/grefar.h"
#include "price/price_model.h"
#include "stats/summary_table.h"

int main(int argc, char** argv) {
  using namespace grefar;
  using namespace grefar::bench;

  CliParser cli("intext_work_distribution",
                "reproduce the Sec. VI-B1 in-text work distribution");
  add_common_options(cli);
  cli.add_option("V", "7.5", "GreFar cost-delay parameter");
  cli.add_option("beta", "100", "GreFar energy-fairness parameter");
  parse_or_exit(cli, argc, argv);
  const auto horizon = cli.get_int("horizon");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double V = cli.get_double("V");
  const double beta = cli.get_double("beta");
  const auto audit = audit_from_cli(cli);

  ObsSession obs(cli);

  print_header("In-text: average work per slot per data center",
               "Ren, He, Xu (ICDCS'12), Sec. VI-B1", seed, horizon);

  PaperScenario scenario = make_paper_scenario(seed);
  auto grefar = make_scenario_engine(
      scenario,
      std::make_shared<GreFarScheduler>(scenario.config, paper_grefar_params(V, beta)),
      audit);
  obs.attach_tracer(*grefar);  // reference run carries the --trace records
  grefar->run(horizon);
  auto always = run_scenario(scenario, std::make_shared<AlwaysScheduler>(scenario.config),
                             horizon, audit);

  const double paper[3] = {33.967, 48.502, 14.770};
  SummaryTable table({"DC", "cost/work", "GreFar work/slot", "paper", "Always work/slot"});
  for (std::size_t dc = 0; dc < 3; ++dc) {
    const auto& st = scenario.config.server_types[dc];
    double cost_per_work =
        average_price(*scenario.prices, dc, horizon) * st.busy_power / st.speed;
    // Built in two steps: GCC 12's -Wrestrict misfires on `"#" + temporary`.
    std::string label = "#";
    label += std::to_string(dc + 1);
    table.add_row({label, format_fixed(cost_per_work, 3),
                   format_fixed(grefar->metrics().mean_dc_work(dc), 3),
                   format_fixed(paper[dc], 3),
                   format_fixed(always->metrics().mean_dc_work(dc), 3)});
  }
  std::cout << table.render()
            << "\npaper shape: GreFar's ordering is DC2 > DC1 > DC3 — work flows to\n"
               "the lowest energy cost per unit work; Always ignores cost.\n";
  obs.finish();
  return 0;
}

// Ablation (DESIGN.md §5.4): price-model dependence.
//
// GreFar's advantage over Always comes from *temporal* price variation.
// Under constant prices the advantage should vanish (only spatial choice
// remains); under spikier prices it should widen.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "common/experiment.h"
#include "core/grefar.h"
#include "price/price_model.h"
#include "sim/metrics.h"
#include "stats/summary_table.h"

int main(int argc, char** argv) {
  using namespace grefar;
  using namespace grefar::bench;

  CliParser cli("ablation_prices", "GreFar's edge vs price-model variability");
  add_common_options(cli, /*default_horizon=*/"1000");
  parse_or_exit(cli, argc, argv);
  const auto horizon = cli.get_int("horizon");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto jobs = jobs_from_cli(cli);
  const auto audit = audit_from_cli(cli);

  ObsSession obs(cli);

  print_header("Ablation: price model vs GreFar's advantage",
               "DESIGN.md section 5 (design-choice ablation)", seed, horizon);

  const std::vector<std::string> variant_names = {
      "constant (Table I means)", "diurnal+OU (paper)", "diurnal+OU with spikes"};
  // Price model for a variant, built on top of a leg's own base scenario
  // (SpikyPriceModel keeps a mutable RNG and cache, so it cannot be shared).
  auto variant_prices = [seed](std::size_t variant, const PaperScenario& base)
      -> std::shared_ptr<const PriceModel> {
    switch (variant) {
      case 0:
        return std::make_shared<ConstantPriceModel>(
            std::vector<double>{0.392, 0.433, 0.548});
      case 1:
        return base.prices;
      default:
        return std::make_shared<SpikyPriceModel>(base.prices, 0.02, 2.5, 0.5,
                                                 seed ^ 0x5111ULL);
    }
  };

  // GreFar's saving decomposes into a *spatial* part (concentrating work on
  // low cost-per-work servers, which works even under constant prices) and a
  // *temporal* part (running work in cheap hours). The clean temporal metric
  // is the price-capture ratio: the work-weighted average price each
  // scheduler paid, relative to the time-average price of the DCs it used.
  // Capture < 1 means work was shifted into troughs; constant prices force
  // capture == 1 exactly.
  auto price_capture = [&](const SimMetrics& m) {
    double paid = 0.0, reference = 0.0;
    for (std::size_t dc = 0; dc < m.num_data_centers(); ++dc) {
      double work = m.dc_work[dc].sum();
      double mean_price = m.dc_price[dc].mean();
      for (std::size_t t = 0; t < m.slots(); ++t) {
        paid += m.dc_price[dc].at(t) * m.dc_work[dc].at(t);
      }
      reference += mean_price * work;
    }
    return reference > 0.0 ? paid / reference : 1.0;
  };

  const double V = 20.0;  // strong deferral to make the temporal effect visible
  // variant x {GreFar, Always} as a SweepSpec cross product: the two policies
  // of a variant share one materialized scenario (the spiky model realizes
  // into an immutable table once, so it can be shared across legs).
  sweep::SweepSpec spec;
  spec.axes = {{.name = "prices", .labels = {"constant", "paper", "spiky"}},
               {.name = "policy", .labels = {"grefar", "always"}}};
  spec.horizon = horizon;
  spec.scenario = [&](const sweep::SweepPoint& p) {
    PaperScenario scenario = make_paper_scenario(seed);
    scenario.prices = variant_prices(p.index(0), scenario);
    return scenario;
  };
  spec.plan = [&](const sweep::SweepPoint& p) {
    sweep::LegPlan plan;
    plan.scenario_key = "paper/seed=" + std::to_string(seed) +
                        "/prices=" + std::to_string(p.index(0));
    if (p.index(1) == 0) {
      plan.grefar = paper_grefar_params(V, 0.0);
    } else {
      plan.make_scheduler = [](const sweep::ScenarioArtifacts& art) {
        return std::make_shared<AlwaysScheduler>(*art.config);
      };
    }
    return plan;
  };
  auto sweep_results = run_sweep_spec(spec, jobs, audit, &obs);

  SummaryTable table({"price model", "Always cost", "GreFar cost", "saving %",
                      "Always capture", "GreFar capture"});
  for (std::size_t v = 0; v < variant_names.size(); ++v) {
    const auto& grefar = sweep_results[v * 2].metrics;
    const auto& always = sweep_results[v * 2 + 1].metrics;
    double eg = grefar.final_average_energy_cost();
    double ea = always.final_average_energy_cost();
    table.add_row(variant_names[v], {ea, eg, 100.0 * (ea - eg) / ea,
                                     price_capture(always),
                                     price_capture(grefar)});
  }
  std::cout << table.render()
            << "\nexpected: price capture is exactly 1 for everyone under constant\n"
               "prices (nothing to time). With variable prices Always pays a\n"
               "premium (capture > 1: its processing follows the diurnal arrivals,\n"
               "which peak with prices) while GreFar holds capture at or below 1 —\n"
               "the temporal arbitrage. The constant-price saving that remains is\n"
               "purely spatial.\n";
  obs.finish();
  return 0;
}

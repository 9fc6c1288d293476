// Ablation (DESIGN.md §5.1): per-slot solver choice.
//
// GreFar runs two per-slot solves: the exact greedy at beta = 0 and
// spectral projected gradient (SPG) at beta > 0. This bench runs GreFar on
// the paper scenario at beta = 0 and beta = 100 and, every slot, solves the
// *same* per-slot problem with production and with the oracles in
// src/check: the simplex LP, Frank-Wolfe and the monotone projected
// gradient run to convergence (PgdAccuracyProbe). It reports, per solver,
// how closely its objective agrees with production's and the wall time per
// solve. At beta = 100 the greedy and LP points ignore the fairness term;
// their rows show what dropping it costs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "check/pgd_oracle.h"
#include "common/experiment.h"
#include "stats/summary_table.h"
#include "util/strings.h"

namespace {

using grefar::PgdAccuracySample;

/// One solver's column of a probe run: its objective and solve time on
/// each sample.
struct SolverColumn {
  std::string name;
  double (*value)(const PgdAccuracySample&);
  double (*micros)(const PgdAccuracySample&);
};

/// Adds `column`'s row: mean objective, the largest and the typical
/// relative distance to production's objective, the share of slots within
/// the 1e-6 accuracy contract of DESIGN.md §11, and mean µs per solve.
void add_solver_row(grefar::SummaryTable& table, const SolverColumn& column,
                    const std::vector<PgdAccuracySample>& samples) {
  double value_sum = 0.0;
  double micros_sum = 0.0;
  double worst = 0.0;
  std::vector<double> gaps;
  std::size_t within = 0;
  for (const PgdAccuracySample& s : samples) {
    const double v = column.value(s);
    const double gap = (v - s.value) / (1.0 + std::abs(s.value));
    value_sum += v;
    micros_sum += column.micros(s);
    worst = std::max(worst, std::abs(gap));
    gaps.push_back(std::abs(gap));
    if (std::abs(gap) <= 1e-6) ++within;
  }
  std::sort(gaps.begin(), gaps.end());
  const double n = static_cast<double>(samples.size());
  const auto sci = [](double x) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2g", x);
    return std::string(buf);
  };
  table.add_row({column.name, grefar::format_fixed(value_sum / n, 3),
                 sci(gaps[gaps.size() / 2]), sci(worst),
                 grefar::format_fixed(100.0 * static_cast<double>(within) / n, 1),
                 grefar::format_fixed(micros_sum / n, 1)});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace grefar;
  using namespace grefar::bench;

  CliParser cli("ablation_solvers", "compare per-slot solvers on GreFar's per-slot problems");
  add_common_options(cli, /*default_horizon=*/"500");
  cli.add_option("V", "7.5", "cost-delay parameter");
  parse_or_exit(cli, argc, argv);
  const auto horizon = cli.get_int("horizon");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double V = cli.get_double("V");
  const auto jobs = jobs_from_cli(cli);
  const auto audit = audit_from_cli(cli);

  ObsSession obs(cli);

  print_header("Ablation: per-slot solver choice",
               "DESIGN.md section 5 (design-choice ablation)", seed, horizon);

  // One leg per beta, each with its own probe as the leg's scheduler. Solve
  // times are wall-clock — under --jobs > 1 legs contend for cores, so
  // compare timings from a --jobs 1 run.
  const std::vector<double> betas = {0.0, 100.0};
  std::vector<std::shared_ptr<PgdAccuracyProbe>> probes(betas.size());
  sweep::SweepSpec spec;
  spec.axes = {{.name = "beta", .values = betas}};
  spec.horizon = horizon;
  spec.scenario = [&](const sweep::SweepPoint&) { return make_paper_scenario(seed); };
  spec.plan = [&](const sweep::SweepPoint& p) {
    sweep::LegPlan plan;
    plan.scenario_key = "paper/seed=" + std::to_string(seed);
    plan.make_scheduler = [&probes, V, beta = p.value(0),
                           leg = p.leg](const sweep::ScenarioArtifacts& art) {
      probes[leg] = std::make_shared<PgdAccuracyProbe>(
          *art.config, paper_grefar_params(V, beta), /*all_solvers=*/true);
      return probes[leg];
    };
    return plan;
  };
  auto sweep_results = run_sweep_spec(spec, jobs, audit, &obs);

  const SolverColumn greedy{"greedy", [](const PgdAccuracySample& s) { return s.greedy.value; },
                            [](const PgdAccuracySample& s) { return s.greedy.micros; }};
  const SolverColumn lp{"lp", [](const PgdAccuracySample& s) { return s.lp.value; },
                        [](const PgdAccuracySample& s) { return s.lp.micros; }};
  const SolverColumn fw{"frank-wolfe",
                        [](const PgdAccuracySample& s) { return s.frank_wolfe.value; },
                        [](const PgdAccuracySample& s) { return s.frank_wolfe.micros; }};
  const SolverColumn monotone{"monotone pgd",
                              [](const PgdAccuracySample& s) { return s.reference; },
                              [](const PgdAccuracySample& s) { return s.reference_micros; }};
  const auto production = [](const std::string& name) {
    return SolverColumn{name + " (production)",
                        [](const PgdAccuracySample& s) { return s.value; },
                        [](const PgdAccuracySample& s) { return s.value_micros; }};
  };

  const std::vector<std::string> headers = {
      "solver", "mean f", "median |df|", "max |df|", "% slots <= 1e-6", "us/solve"};
  for (std::size_t leg = 0; leg < betas.size(); ++leg) {
    const auto& m = sweep_results[leg].metrics;
    const bool fair = betas[leg] > 0.0;
    std::cout << "-- beta = " << format_fixed(betas[leg], 0)
              << (fair ? " (SPG in production; greedy and LP ignore fairness) --\n"
                       : " (greedy in production; LP is exact too) --\n")
              << "GreFar run: avg energy cost " << format_fixed(m.final_average_energy_cost(), 3)
              << ", avg fairness " << format_fixed(m.final_average_fairness(), 3)
              << ", overall delay " << format_fixed(m.mean_delay(), 3) << "\n";
    SummaryTable table(headers);
    const std::vector<PgdAccuracySample>& samples = probes[leg]->samples();
    add_solver_row(table, production(fair ? "spg" : "greedy"), samples);
    if (fair) add_solver_row(table, greedy, samples);
    add_solver_row(table, lp, samples);
    add_solver_row(table, fw, samples);
    add_solver_row(table, monotone, samples);
    std::cout << table.render() << "\n";
  }
  std::cout << "f is the per-slot objective of eq. (14) on each slot's problem; df is\n"
               "(f - f_production) / (1 + |f_production|). Greedy and LP reach the same\n"
               "optimum at beta = 0 and the greedy is the faster; SPG meets the 1e-6\n"
               "contract against the converged monotone oracle at beta = 100, where\n"
               "Frank-Wolfe stops short of it.\n";
  obs.finish();
  return 0;
}

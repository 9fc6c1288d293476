// Theorem 1 empirical check (the paper's analysis section).
//
// On the literal queue dynamics (12)-(13):
//  (a) the largest queue grows O(V) in the cost-delay parameter;
//  (b) GreFar's time-average cost approaches the optimal T-step lookahead
//      policy's cost (eq. (19)) with an O(1/V) gap.
// In the beta > 0 regime each slot's convex program is solved iteratively,
// to within some C of its minimum, which adds C/V to the gap bound. The
// bench measures C on every slot against the monotone-PGD oracle
// (check/pgd_oracle.h) and prints it next to the drift constants B and D.
//
// Uses a small instance where the frame problem is an exact LP.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <iostream>
#include <memory>

#include "check/pgd_oracle.h"
#include "common/experiment.h"
#include "util/strings.h"
#include "core/grefar.h"
#include "lookahead/lookahead.h"
#include "price/price_model.h"
#include "sim/scalar_engine.h"
#include "stats/summary_table.h"
#include "workload/arrival_process.h"

namespace {

grefar::ClusterConfig theorem_config() {
  grefar::ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc1", {12}}, {"dc2", {12}}};
  c.accounts = {{"a", 1.0}};
  c.job_types = {{"j", 1.0, {0, 1}, 0}};
  return c;
}

/// The drift constants of Theorem 1 for the literal dynamics (12)-(13) with
/// arrivals a_j <= a_max[j]:
///   B = 1/2 sum_j (a_max_j^2 + (N_j r_max)^2) + 1/2 sum_{i,j} (r_max^2 + h_max^2)
/// bounds one slot's quadratic drift terms, where N_j is the number of DCs
/// type j may use and (i, j) runs over eligible pairs; and
///   D = 1/2 sum_j max(a_max_j, N_j r_max)^2 + 1/2 sum_{i,j} max(r_max, h_max)^2
/// bounds how far a queue and its drift coefficient move per slot, which is
/// what comparing against a T-slot frame costs: gap <= (B + D(T-1) + C)/V.
struct DriftConstants {
  double B = 0.0;
  double D = 0.0;
};

DriftConstants drift_constants(const grefar::ClusterConfig& config,
                               const std::vector<double>& a_max, double r_max,
                               double h_max) {
  DriftConstants k;
  for (std::size_t j = 0; j < config.num_job_types(); ++j) {
    const double dcs = static_cast<double>(config.job_types[j].eligible_dcs.size());
    const double routed = dcs * r_max;
    k.B += 0.5 * (a_max[j] * a_max[j] + routed * routed) +
           0.5 * dcs * (r_max * r_max + h_max * h_max);
    const double moved = std::max(a_max[j], routed);
    const double local = std::max(r_max, h_max);
    k.D += 0.5 * moved * moved + 0.5 * dcs * local * local;
  }
  return k;
}

std::shared_ptr<grefar::TablePriceModel> theorem_prices() {
  return std::make_shared<grefar::TablePriceModel>(
      std::vector<std::vector<double>>{{0.9, 0.8, 0.7, 0.3, 0.2, 0.3, 0.8, 0.9},
                                       {0.7, 0.7, 0.5, 0.4, 0.3, 0.4, 0.6, 0.7}});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace grefar;
  using namespace grefar::bench;

  CliParser cli("theorem1_bounds", "empirically check Theorem 1's O(V)/O(1/V) bounds");
  add_common_options(cli, /*default_horizon=*/"1600");
  cli.add_option("T", "8", "lookahead frame length (horizon must be R*T)");
  parse_or_exit(cli, argc, argv);
  const auto horizon = cli.get_int("horizon");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto T = cli.get_int("T");

  ObsSession obs(cli);

  print_header("Theorem 1: queue bound O(V), optimality gap O(1/V)",
               "Ren, He, Xu (ICDCS'12), Theorem 1", seed, horizon);

  auto config = theorem_config();
  auto prices = theorem_prices();

  // Optimal T-step lookahead cost (eq. (19)).
  FullAvailability avail_la(config.data_centers);
  ConstantArrivals arrivals_la({6});
  LookaheadParams lp;
  lp.T = T;
  lp.R = horizon / T;
  lp.r_max = 50.0;
  lp.h_max = 50.0;
  double optimal = solve_lookahead(config, *prices, avail_la, arrivals_la, lp).average_cost;
  std::cout << "optimal T-step lookahead average cost (T=" << T
            << "): " << format_fixed(optimal, 4) << "\n\n";

  SummaryTable table({"V", "avg cost", "gap to lookahead", "gap * V", "max queue",
                      "max queue / V"});
  for (double V : {0.5, 2.0, 8.0, 32.0, 128.0, 512.0}) {
    auto avail = std::make_shared<FullAvailability>(config.data_centers);
    auto arrivals = std::make_shared<ConstantArrivals>(std::vector<std::int64_t>{6});
    GreFarParams params;
    params.V = V;
    params.r_max = 50.0;
    params.h_max = 50.0;
    params.clamp_to_queue = true;
    params.process_after_routing = false;  // literal eq. (13) ordering
    auto scheduler = std::make_shared<GreFarScheduler>(config, params);
    ScalarQueueSimulator sim(config, prices, avail, arrivals, scheduler);
    sim.run(horizon);
    double cost = sim.average_cost(0.0);
    double gap = cost - optimal;
    table.add_row("V=" + format_fixed(V, 1),
                  {cost, gap, gap * V, sim.max_queue_observed(),
                   sim.max_queue_observed() / V});
  }
  std::cout << table.render()
            << "\nTheorem 1 shape: 'gap * V' stays bounded (O(1/V) optimality gap)\n"
               "while 'max queue / V' stays bounded (O(V) queue growth). Very large\n"
               "V can dip below the lookahead cost because work deferred past the\n"
               "horizon end is never charged.\n\n";

  // -- beta > 0: the energy-fairness regime ---------------------------------
  // Two accounts share the cluster; the lookahead bound now comes from
  // Frank-Wolfe over the frame polytope (solve_lookahead_fair).
  const double beta = 10.0;
  ClusterConfig fair_config = theorem_config();
  fair_config.accounts = {{"a", 0.5}, {"b", 0.5}};
  fair_config.job_types = {{"ja", 1.0, {0, 1}, 0}, {"jb", 1.0, {0, 1}, 1}};

  FullAvailability fair_avail(fair_config.data_centers);
  ConstantArrivals fair_arrivals_la({3, 3});
  FairLookaheadParams flp;
  flp.base = lp;
  flp.base.R = std::min<std::int64_t>(lp.R, 50);  // FW per frame is pricier
  flp.beta = beta;
  double fair_optimal =
      solve_lookahead_fair(fair_config, *prices, fair_avail, fair_arrivals_la, flp)
          .average_cost;
  std::cout << "beta = " << format_fixed(beta, 1)
            << " energy-fairness lookahead optimum (FW over frame LP): "
            << format_fixed(fair_optimal, 4) << "\n\n";

  const DriftConstants drift =
      drift_constants(fair_config, {3.0, 3.0}, lp.r_max, lp.h_max);
  SummaryTable fair_table({"V", "avg g = e - beta*f", "gap to lookahead", "max queue"});
  const auto sci = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3g", v);
    return std::string(buf);
  };
  std::string c_lines;
  for (double V : {2.0, 32.0, 128.0}) {
    auto avail = std::make_shared<FullAvailability>(fair_config.data_centers);
    auto arrivals =
        std::make_shared<ConstantArrivals>(std::vector<std::int64_t>{3, 3});
    GreFarParams params;
    params.V = V;
    params.beta = beta;
    params.r_max = 50.0;
    params.h_max = 50.0;
    params.clamp_to_queue = true;
    params.process_after_routing = false;  // literal eq. (13) ordering
    // Decides exactly like GreFarScheduler(fair_config, params) (PGD at
    // beta > 0) and measures each slot's suboptimality on the side.
    auto scheduler = std::make_shared<PgdAccuracyProbe>(fair_config, params);
    ScalarQueueSimulator sim(fair_config, prices, avail, arrivals, scheduler);
    sim.run(flp.base.R * flp.base.T);
    double cost = sim.average_cost(beta);
    double c_max = -std::numeric_limits<double>::infinity();
    double c_sum = 0.0;
    for (const PgdAccuracySample& sample : scheduler->samples()) {
      c_max = std::max(c_max, sample.excess());
      c_sum += sample.excess();
    }
    const std::size_t slots = scheduler->samples().size();
    fair_table.add_row("V=" + format_fixed(V, 1),
                       {cost, cost - fair_optimal, sim.max_queue_observed()});
    c_lines += "  V=" + format_fixed(V, 1) + ": C max " + sci(c_max) + ", mean " +
               sci(c_sum / static_cast<double>(slots)) + " over " +
               std::to_string(slots) + " slots; C/V " + sci(c_max / V) + "\n";
  }
  std::cout << fair_table.render()
            << "\nsame story with fairness in the objective: the gap shrinks as V\n"
               "grows while queues grow at most linearly.\n\n"
            << "Theorem 1 with inexact per-slot solves: gap <= (B + D(T-1) + C)/V.\n"
            << "  B = " << format_fixed(drift.B, 1)
            << ", D = " << format_fixed(drift.D, 1) << " for this instance (T = " << T
            << ")\n"
            << "  C = f(x) - f(x_ref) per slot, production PGD vs the monotone\n"
               "  oracle run to convergence (negative: production was lower):\n"
            << c_lines;
  obs.finish();
  return 0;
}

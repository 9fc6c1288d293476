// The optimal T-step lookahead policy (paper §V-A, eq. (15)-(18)).
//
// The horizon t_end = R*T is split into R frames; within each frame the
// policy knows all arrivals, prices and availability in advance and solves
//
//   min (1/T) sum_t g(t)
//   s.t. sum_t ( a_j(t) - sum_{i in D_j} r_{i,j}(t) ) <= 0        (16)
//        sum_t ( r_{i,j}(t) - h_{i,j}(t) ) <= 0                   (17)
//        sum_j h_{i,j}(t) d_j <= sum_k b_{i,k}(t) s_k <= cap_i(t) (18)
//
// With beta = 0 this is a linear program (decision variables: routed jobs
// r, processed work u = h*d, and per-server-type work w); we solve it with
// the simplex substrate. The frame optima G*_r are the comparison targets of
// Theorem 1(b): GreFar's average cost is within (B + D(T-1))/V of their mean.
//
// beta > 0 turns the frame problem into a convex QP; the empirical theorem
// bench uses beta = 0 where the LP is exact, matching the paper's Fig. 2
// setting. (solve_lookahead contract-checks beta == 0.)
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "price/price_model.h"
#include "sim/availability.h"
#include "sim/cluster.h"
#include "solver/lp.h"
#include "workload/arrival_process.h"

namespace grefar {

struct LookaheadParams {
  std::int64_t T = 8;   // frame length (slots)
  std::int64_t R = 8;   // number of frames; horizon = R*T
  double r_max = 1e6;   // eq. (4) bound
  double h_max = 1e6;   // eq. (5) bound
};

struct LookaheadResult {
  std::vector<double> frame_costs;  // G*_r, r = 0..R-1 (per-slot averages)
  double average_cost = 0.0;        // (1/R) sum_r G*_r — eq. (19)
};

/// Solves every frame LP over the horizon [0, R*T). Throws ContractViolation
/// if any frame is infeasible (the slackness conditions (20)-(22) guarantee
/// feasibility on well-posed instances). Frames are solved one after
/// another, each from model data read right before its solve.
LookaheadResult solve_lookahead(const ClusterConfig& config, const PriceModel& prices,
                                const AvailabilityModel& availability,
                                const ArrivalProcess& arrivals,
                                const LookaheadParams& params);

/// The T-step lookahead policy for the *full* energy-fairness cost
/// g = e - beta*f (beta > 0 makes the frame problem a convex QP). Solved by
/// Frank-Wolfe over the frame polytope, using the frame LP (with the
/// linearized objective) as the linear minimization oracle — the FW gap
/// certifies near-optimality of every frame. The polytope never changes
/// within a frame, so every LMO call after the first warm-starts from the
/// previous vertex's simplex basis (phase-2 re-entry). With beta = 0 this
/// agrees with solve_lookahead (and costs more time); use it to empirically
/// check Theorem 1 in the fairness regime.
struct FairLookaheadParams {
  LookaheadParams base;
  double beta = 0.0;
  int fw_iterations = 80;  // per frame
};
LookaheadResult solve_lookahead_fair(const ClusterConfig& config,
                                     const PriceModel& prices,
                                     const AvailabilityModel& availability,
                                     const ArrivalProcess& arrivals,
                                     const FairLookaheadParams& params);

}  // namespace grefar

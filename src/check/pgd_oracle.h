// The accuracy oracle for the per-slot SPG solve.
//
// Theorem 1 needs each slot's convex program (eq. (14)) solved only to
// within an additive C of its minimum; that adds C/V to the cost gap. The
// production solver (solver/projected_gradient.h, SPG) is therefore checked
// by value against an independent reference, not bit for bit:
//
//   * minimize_monotone_pgd — projected gradient with a monotone
//     backtracking search over the projection arc, run until no candidate
//     moves x by 1e-12 or decreases f. Slow but simple: the reference x_ref.
//   * frank_wolfe_gap — g(x)'(x - s), s = argmin_{s in P} g(x)'s, an upper
//     bound on f(x) - min f that certifies the reference.
//   * PgdAccuracyProbe — a GreFar scheduler wrapper that, every slot,
//     rebuilds the engine's per-slot problem, solves it with production
//     PGD from the same warm start and with the oracle, and records both
//     objective values, how the production solve stopped and its unit-step
//     residual.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/drift_penalty.h"
#include "core/grefar.h"
#include "core/per_slot_solvers.h"
#include "solver/capped_box.h"
#include "solver/objective.h"
#include "solver/projected_gradient.h"

namespace grefar {

struct MonotonePgdResult {
  std::vector<double> x;
  double objective = 0.0;
  int iterations = 0;
  bool converged = false;  // ended on its own test, not the safety cap
};

/// Monotone projected gradient from the projection of `x0` (empty = the
/// origin's): step t halves until f(P(x - t*g)) < f(x), grows 1.5x after an
/// accepted step, and the solve ends when no step moves x by 1e-12 or
/// decreases f. A safety cap of 10^5 iterations ends a solve that does not
/// (converged = false); ill-conditioned slots take a few thousand.
MonotonePgdResult minimize_monotone_pgd(const ConvexObjective& objective,
                                        const CappedBoxPolytope& polytope,
                                        std::vector<double> x0);

/// Frank-Wolfe duality gap at feasible x: g(x)'(x - s) with s the linear
/// minimizer of g(x) over the polytope. Non-negative up to rounding, and
/// f(x) - min f <= gap for convex f.
double frank_wolfe_gap(const ConvexObjective& objective,
                       const CappedBoxPolytope& polytope, const std::vector<double>& x);

/// One checked slot: production objective f(x), how its solve stopped and
/// its unit-step residual, and the reference f(x_ref) with its Frank-Wolfe
/// gap.
struct PgdAccuracySample {
  std::int64_t slot = 0;
  double value = 0.0;
  PgdStop stop = PgdStop::kIterationCap;
  int iterations = 0;
  /// ||P(x - g(x)) - x||_inf at the returned x.
  double residual = 0.0;
  double reference = 0.0;
  double reference_fw_gap = 0.0;
  int reference_iterations = 0;
  bool reference_converged = false;
  bool compact = false;

  /// f(x) - f(x_ref): the measured per-slot suboptimality C (negative when
  /// production beat the reference).
  double excess() const { return value - reference; }
  /// The accuracy contract at relative tolerance eps:
  /// |f(x) - f(x_ref)| <= eps * (1 + |f(x_ref)|).
  bool within_contract(double eps) const;
};

/// A GreFar PGD scheduler drives the trajectory; each slot the engine's
/// per-slot problem (post-routing queues when params.process_after_routing)
/// is rebuilt, solved by production solve_per_slot_into from its own
/// scratch — so from the same cross-slot warm start as the driving
/// scheduler — and by minimize_monotone_pgd from that start. `compact`
/// lets the checked problem go compact when the observation carries the
/// active-type hint; false keeps it dense.
class PgdAccuracyProbe final : public Scheduler {
 public:
  PgdAccuracyProbe(const ClusterConfig& config, const GreFarParams& params, bool compact);

  SlotAction decide(const SlotObservation& obs) override;
  void decide_into(const SlotObservation& obs, SlotAction& out) override;
  std::string name() const override { return "PgdAccuracyProbe"; }

  const std::vector<PgdAccuracySample>& samples() const { return samples_; }

 private:
  GreFarScheduler inner_;
  ClusterConfig config_;
  GreFarParams params_;
  bool compact_;
  std::optional<PerSlotProblem> problem_;
  PerSlotSolverScratch scratch_;
  PgdWorkspace workspace_;
  SlotObservation routed_;
  std::vector<double> u_;
  std::vector<double> x_;
  std::vector<double> grad_;
  std::vector<double> shifted_;
  std::vector<double> projected_;
  std::vector<PgdAccuracySample> samples_;
};

}  // namespace grefar

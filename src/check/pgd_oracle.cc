#include "check/pgd_oracle.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace grefar {

MonotonePgdResult minimize_monotone_pgd(const ConvexObjective& objective,
                                        const CappedBoxPolytope& polytope,
                                        std::vector<double> x0) {
  constexpr int kMaxIterations = 100000;
  constexpr int kMaxBacktracks = 30;
  constexpr double kTolerance = 1e-12;
  const std::size_t n = polytope.dim();
  GREFAR_CHECK(x0.empty() || x0.size() == n);
  if (x0.empty()) x0.assign(n, 0.0);
  MonotonePgdResult result;
  std::vector<double>& x = result.x;
  polytope.project_into(x0, x);
  std::vector<double> grad;
  std::vector<double> grad_c;
  std::vector<double> shifted(n);
  std::vector<double> candidate(n);
  double fx = objective.value_and_gradient(x, grad);
  double step = 1.0;
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    ++result.iterations;
    bool improved = false;
    double trial_step = step;
    for (int bt = 0; bt < kMaxBacktracks; ++bt) {
      for (std::size_t j = 0; j < n; ++j) shifted[j] = x[j] - trial_step * grad[j];
      polytope.project_into(shifted, candidate);
      // ||P(x - t*g) - x|| does not grow as t shrinks, so a negligible move
      // here means every later backtracking step moves even less.
      double move = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        move += (candidate[j] - x[j]) * (candidate[j] - x[j]);
      }
      if (std::sqrt(move) < kTolerance) break;
      const double fc = objective.value_and_gradient(candidate, grad_c);
      if (fc < fx - 1e-15) {
        x.swap(candidate);
        grad.swap(grad_c);
        fx = fc;
        step = trial_step * 1.5;
        improved = true;
        break;
      }
      trial_step *= 0.5;
    }
    if (!improved) {
      result.converged = true;
      break;
    }
  }
  result.objective = fx;
  return result;
}

double frank_wolfe_gap(const ConvexObjective& objective,
                       const CappedBoxPolytope& polytope, const std::vector<double>& x) {
  std::vector<double> grad;
  objective.gradient(x, grad);
  std::vector<double> vertex;
  polytope.minimize_linear_into(grad, vertex);
  double gap = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) gap += grad[j] * (x[j] - vertex[j]);
  return gap;
}

bool PgdAccuracySample::within_contract(double eps) const {
  return std::abs(excess()) <= eps * (1.0 + std::abs(reference));
}

PgdAccuracyProbe::PgdAccuracyProbe(const ClusterConfig& config,
                                   const GreFarParams& params, bool compact)
    : inner_(config, params, PerSlotSolver::kProjectedGradient),
      config_(config),
      params_(params),
      compact_(compact) {}

SlotAction PgdAccuracyProbe::decide(const SlotObservation& obs) {
  SlotAction action;
  decide_into(obs, action);
  return action;
}

void PgdAccuracyProbe::decide_into(const SlotObservation& obs, SlotAction& out) {
  inner_.decide_into(obs, out);
  // GreFarScheduler solves against the queues service will see: q + r.
  routed_ = obs;
  if (params_.process_after_routing) {
    for (std::size_t i = 0; i < routed_.dc_queue.rows(); ++i) {
      for (std::size_t j = 0; j < routed_.dc_queue.cols(); ++j) {
        routed_.dc_queue(i, j) += out.route(i, j);
      }
    }
  }
  if (!problem_) problem_.emplace(config_, params_);
  problem_->set_sparse_enabled(compact_);
  problem_->reset(routed_);
  // Solved through the production dispatch, so the warm start follows the
  // driving scheduler's.
  solve_per_slot_into(*problem_, PerSlotSolver::kProjectedGradient, u_, &scratch_);
  const CappedBoxPolytope& polytope = problem_->polytope();
  // scratch_.warm holds the start production just used (PGD only reads it);
  // the same solve again reports how it stopped.
  const PgdStats stats =
      minimize_projected_gradient(*problem_, polytope, scratch_.warm, x_, workspace_);
  GREFAR_CHECK_MSG(x_ == u_, "PGD re-solve differs from the dispatched solve");
  problem_->gradient(u_, grad_);
  shifted_.resize(u_.size());
  for (std::size_t j = 0; j < u_.size(); ++j) shifted_[j] = u_[j] - grad_[j];
  polytope.project_into(shifted_, projected_);
  double residual = 0.0;
  for (std::size_t j = 0; j < u_.size(); ++j) {
    residual = std::max(residual, std::abs(projected_[j] - u_[j]));
  }
  MonotonePgdResult ref = minimize_monotone_pgd(*problem_, polytope, scratch_.warm);
  PgdAccuracySample sample;
  sample.slot = obs.slot;
  sample.value = problem_->value(u_);
  sample.stop = stats.stop;
  sample.iterations = stats.iterations;
  sample.residual = residual;
  sample.reference = ref.objective;
  sample.reference_fw_gap = frank_wolfe_gap(*problem_, polytope, ref.x);
  sample.reference_iterations = ref.iterations;
  sample.reference_converged = ref.converged;
  sample.compact = problem_->compact();
  samples_.push_back(sample);
}

}  // namespace grefar

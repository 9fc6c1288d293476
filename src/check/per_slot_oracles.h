// Independent solves of GreFar's per-slot problem (drift_penalty.h), kept as
// oracles for the production solve (per_slot_solvers.h: greedy at beta = 0,
// SPG above). Tests and the solver ablation compare production against
// them; no scheduler runs them.
//
// * solve_per_slot_lp — the beta = 0 problem as a linear program, solved by
//   the simplex engine (solver/lp.h). An exact reference for the greedy.
// * solve_per_slot_frank_wolfe — Frank-Wolfe on the full convex objective,
//   fairness term included, started from the greedy point.
// * solve_per_slot_pgd — one SPG solve started from the greedy point: the
//   production beta > 0 kernel without the cross-slot warm start.
//
// The monotone-PGD reference the SPG accuracy contract is stated against
// lives in pgd_oracle.h.
#pragma once

#include <vector>

#include "check/frank_wolfe.h"
#include "core/drift_penalty.h"
#include "solver/lp.h"
#include "solver/projected_gradient.h"

namespace grefar {

/// Frank-Wolfe on the full convex objective, from the greedy point.
std::vector<double> solve_per_slot_frank_wolfe(const PerSlotProblem& problem);

/// Spectral projected gradient on the full convex objective, from the
/// greedy point.
std::vector<double> solve_per_slot_pgd(const PerSlotProblem& problem);

/// Builds the beta = 0 LP over variables [u_{i,j} | w_{i,k}] where w_{i,k}
/// is work served by server type k in DC i:
///   min  sum_{i,k} V*phi_i*(p_k/s_k) w_{i,k} - sum_{i,j} (q_{i,j}/d_j) u_{i,j}
///   s.t. sum_j u_{i,j} <= sum_k w_{i,k};  w_{i,k} <= n_{i,k} s_k;  u <= ub.
/// j runs over the problem's columns (PerSlotProblem::columns()).
/// Linear billing only: a tiered tariff is rejected.
LinearProgram build_per_slot_lp(const PerSlotProblem& problem);

/// Solves via the LP above and extracts the u block.
std::vector<double> solve_per_slot_lp(const PerSlotProblem& problem);

}  // namespace grefar

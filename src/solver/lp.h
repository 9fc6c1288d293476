// Bounded-variable revised simplex LP engine with warm starts.
//
// Solves   minimize c^T x   subject to   A x (<=|>=|=) b,   0 <= x <= ub.
//
// This is the general-purpose LP substrate: the per-slot GreFar problem with
// beta = 0 is an LP (used to cross-check the specialized greedy solver), the
// T-step lookahead policy of Section V solves one frame LP per frame, and
// oracle MPC solves a window LP every slot. Three properties matter for
// those consumers and drive the design:
//
//  * Rows are stored sparsely end to end (a frame LP touches a handful of
//    variables per row out of hundreds) and variable upper bounds are
//    *bounds*, not extra rows — the basis stays m x m over the structural
//    rows only, and nonbasic variables may sit at either bound, entering
//    via bound flips without a pivot.
//  * Every optimal solution carries its final SimplexBasis. Repeated-solve
//    consumers (the Frank-Wolfe LMO loop, receding-horizon MPC) hand it back
//    to solve_lp(lp, warm) which re-enters phase 2 directly — same polytope
//    with a new objective resumes in O(1) pivots; shifted rhs data reuses
//    the basis whenever it is still primal feasible.
//  * Warm starting is always safe: a basis that no longer fits the data
//    (wrong shape, singular, or primal infeasible) silently falls back to a
//    cold two-phase solve.
//
// Pricing is Dantzig with deterministic ascending-index tie-breaks; the
// solver switches to Bland's rule after a run of degenerate steps, so it
// terminates on degenerate problems. The original dense full-tableau method
// (bounds expanded to rows) lives on as an independent oracle in
// check/lp_tableau.h.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace grefar {

enum class ConstraintSense { kLessEqual, kGreaterEqual, kEqual };

/// One linear constraint: sum_{(j, a) in terms} a * x_j (sense) rhs.
/// Terms are stored sparsely; duplicate indices accumulate.
struct LinearConstraint {
  std::vector<std::pair<std::size_t, double>> terms;
  ConstraintSense sense = ConstraintSense::kLessEqual;
  double rhs = 0.0;
};

/// A linear program in "c, A, b" form with 0 <= x <= ub (ub default +inf).
class LinearProgram {
 public:
  explicit LinearProgram(std::size_t num_vars)
      : objective_(num_vars, 0.0),
        upper_(num_vars, std::numeric_limits<double>::infinity()) {}

  std::size_t num_vars() const { return objective_.size(); }
  std::size_t num_constraints() const { return constraints_.size(); }

  /// Sets the objective coefficient of variable `j`.
  void set_objective(std::size_t j, double coeff);
  const std::vector<double>& objective() const { return objective_; }

  /// Adds a constraint; `coeffs` must have num_vars entries. Zero
  /// coefficients are dropped on the way into the sparse store.
  void add_constraint(const std::vector<double>& coeffs, ConstraintSense sense,
                      double rhs);

  /// Adds a sparse constraint given (index, coeff) pairs (duplicates add up).
  void add_constraint_sparse(const std::vector<std::pair<std::size_t, double>>& terms,
                             ConstraintSense sense, double rhs);

  /// Tightens the variable bound to x_j <= ub (the minimum over calls wins).
  /// This is a bound, not a row: it does not count toward num_constraints().
  void add_upper_bound(std::size_t j, double ub);

  const std::vector<LinearConstraint>& constraints() const { return constraints_; }
  const std::vector<double>& upper_bounds() const { return upper_; }

 private:
  std::vector<double> objective_;
  std::vector<double> upper_;
  std::vector<LinearConstraint> constraints_;
};

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

/// A simplex basis snapshot: which column (structural, slack/surplus, or
/// row-artificial sentinel) is basic in each row, plus which nonbasic
/// columns rest at their upper bound. Opaque to callers — obtain one from
/// LpSolution::basis and pass it back to solve_lp(lp, warm) for an LP with
/// the same shape (num_vars, rows, senses). Column indexing is internal to
/// the solver; a basis only round-trips between solves of structurally
/// identical programs.
struct SimplexBasis {
  std::vector<std::size_t> basic;    // per row: basic column index
  std::vector<std::uint8_t> at_upper;  // per non-artificial column

  bool valid() const { return !basic.empty(); }
};

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  std::vector<double> x;
  double objective = 0.0;
  int iterations = 0;
  /// Final basis (populated when status == kOptimal); feed to
  /// solve_lp(lp, warm) to re-solve a same-shape LP from here.
  SimplexBasis basis;

  bool optimal() const { return status == LpStatus::kOptimal; }
};

/// Pivot / reduced-cost tolerance of this simplex and of the dense-tableau
/// oracle (check/lp_tableau.h).
inline constexpr double kSimplexEps = 1e-9;
/// Iteration cap of one solve, across both phases (kIterationLimit beyond).
inline constexpr int kSimplexMaxIterations = 50000;

/// Solves the LP with the bounded-variable revised simplex (cold start).
LpSolution solve_lp(const LinearProgram& lp);

/// Warm-started solve: re-enters phase 2 from `warm` (a basis exported by a
/// previous solve of a same-shape LP). Falls back to a cold solve if the
/// basis does not fit the current data, so this is never less robust than
/// solve_lp(lp).
LpSolution solve_lp(const LinearProgram& lp, const SimplexBasis& warm);

/// Human-readable status name (for logs and test failure messages).
std::string to_string(LpStatus status);

}  // namespace grefar

#include "solver/lp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/counters.h"
#include "util/check.h"

namespace grefar {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

void LinearProgram::set_objective(std::size_t j, double coeff) {
  GREFAR_CHECK(j < objective_.size());
  objective_[j] = coeff;
}

void LinearProgram::add_constraint(const std::vector<double>& coeffs,
                                   ConstraintSense sense, double rhs) {
  GREFAR_CHECK_MSG(coeffs.size() == num_vars(),
                   "constraint has " << coeffs.size() << " coeffs, expected "
                                     << num_vars());
  LinearConstraint c;
  c.sense = sense;
  c.rhs = rhs;
  for (std::size_t j = 0; j < coeffs.size(); ++j) {
    if (coeffs[j] != 0.0) c.terms.emplace_back(j, coeffs[j]);
  }
  constraints_.push_back(std::move(c));
}

void LinearProgram::add_constraint_sparse(
    const std::vector<std::pair<std::size_t, double>>& terms, ConstraintSense sense,
    double rhs) {
  for (const auto& [j, c] : terms) {
    GREFAR_CHECK(j < num_vars());
    (void)c;
  }
  constraints_.push_back({terms, sense, rhs});
}

void LinearProgram::add_upper_bound(std::size_t j, double ub) {
  GREFAR_CHECK(j < num_vars());
  upper_[j] = std::min(upper_[j], ub);
}

std::string to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterationLimit: return "iteration-limit";
  }
  return "unknown";
}

namespace {

// ---------------------------------------------------------------------------
// Bounded-variable revised simplex.
//
// Column space: [0, n_struct) structural variables, [n_struct, n_cols) one
// slack (+1) or surplus (-1) per inequality row, [n_cols, n_cols + m) one
// artificial unit column per row (only the ones a phase-1 basis needs are
// ever activated; index n_cols + r doubles as the "row r is redundant"
// sentinel in an exported basis). Every column has lower bound 0; upper
// bounds are per-column (+inf for slacks, 0 for dormant artificials).
//
// The basis inverse is kept dense (m x m, product-form pivot updates with
// periodic refactorization); columns are priced against the sparse matrix.
// ---------------------------------------------------------------------------
class RevisedSimplex {
 public:
  explicit RevisedSimplex(const LinearProgram& lp)
      : m_(lp.num_constraints()),
        n_struct_(lp.num_vars()),
        objective_(lp.objective()) {
    // Normalize rhs >= 0 by negating rows (flips <= / >=), then lay out the
    // slack/surplus columns and the structural columns in CSC form. The CSC
    // is two flat arrays (count + prefix-sum + fill), not per-column
    // vectors: the solver is rebuilt for every warm-started LMO/MPC call,
    // so construction must not allocate per column.
    col_ptr_.assign(n_struct_ + 1, 0);
    for (const auto& c : lp.constraints()) {
      for (const auto& [j, a] : c.terms) {
        if (a != 0.0) ++col_ptr_[j + 1];
      }
    }
    for (std::size_t j = 0; j < n_struct_; ++j) col_ptr_[j + 1] += col_ptr_[j];
    col_entries_.resize(col_ptr_[n_struct_]);
    std::vector<std::size_t> cursor(col_ptr_.begin(), col_ptr_.end() - 1);
    b_.assign(m_, 0.0);
    row_sense_.assign(m_, ConstraintSense::kEqual);
    std::size_t num_slack = 0;
    for (const auto& c : lp.constraints()) {
      if (c.sense != ConstraintSense::kEqual) ++num_slack;
    }
    n_cols_ = n_struct_ + num_slack;
    n_all_ = n_cols_ + m_;
    slack_row_.reserve(num_slack);
    slack_sign_.reserve(num_slack);
    for (std::size_t i = 0; i < m_; ++i) {
      const auto& c = lp.constraints()[i];
      const double sign = c.rhs < 0.0 ? -1.0 : 1.0;
      b_[i] = sign * c.rhs;
      ConstraintSense sense = c.sense;
      if (sign < 0.0) {
        if (sense == ConstraintSense::kLessEqual) {
          sense = ConstraintSense::kGreaterEqual;
        } else if (sense == ConstraintSense::kGreaterEqual) {
          sense = ConstraintSense::kLessEqual;
        }
      }
      row_sense_[i] = sense;
      for (const auto& [j, a] : c.terms) {
        if (a != 0.0) col_entries_[cursor[j]++] = {i, sign * a};
      }
      if (sense != ConstraintSense::kEqual) {
        slack_row_.push_back(i);
        slack_sign_.push_back(sense == ConstraintSense::kLessEqual ? 1.0 : -1.0);
      }
    }

    ub_.assign(n_all_, 0.0);
    for (std::size_t j = 0; j < n_struct_; ++j) ub_[j] = lp.upper_bounds()[j];
    for (std::size_t s = 0; s < num_slack; ++s) ub_[n_struct_ + s] = kInf;
    // Artificials stay at ub 0 until phase 1 activates them.

    cost_.assign(n_all_, 0.0);
    for (std::size_t j = 0; j < n_struct_; ++j) cost_[j] = objective_[j];

    value_.assign(n_all_, 0.0);
    at_upper_.assign(n_all_, 0);
    in_basis_.assign(n_all_, 0);
    basis_.assign(m_, SIZE_MAX);
    binv_.assign(m_ * m_, 0.0);
    xb_.assign(m_, 0.0);
    y_.assign(m_, 0.0);
    alpha_.assign(m_, 0.0);
    rhs_work_.assign(m_, 0.0);
  }

  LpSolution solve_cold() {
    LpSolution solution;
    if (bounds_infeasible()) {
      solution.status = LpStatus::kInfeasible;
      return solution;
    }
    // Initial basis: slack for normalized <= rows, artificial otherwise.
    // Both are +1 unit columns, so B = I and x_B = b >= 0 directly.
    bool has_artificials = false;
    {
      std::size_t s = 0;
      for (std::size_t i = 0; i < m_; ++i) {
        std::size_t col;
        if (row_sense_[i] == ConstraintSense::kLessEqual) {
          col = n_struct_ + s;
        } else {
          col = n_cols_ + i;
          ub_[col] = kInf;  // activate for phase 1
          has_artificials = true;
        }
        if (row_sense_[i] != ConstraintSense::kEqual) ++s;
        basis_[i] = col;
        in_basis_[col] = 1;
        binv_[i * m_ + i] = 1.0;
        xb_[i] = b_[i];
      }
    }

    if (has_artificials) {
      std::vector<double> phase1_cost(n_all_, 0.0);
      for (std::size_t i = 0; i < m_; ++i) {
        if (row_sense_[i] != ConstraintSense::kLessEqual) {
          phase1_cost[n_cols_ + i] = 1.0;
        }
      }
      LpStatus status = iterate(phase1_cost, &solution.iterations);
      if (status != LpStatus::kOptimal) {
        // Phase 1 is bounded below by 0; anything but optimal is an
        // iteration/numerics failure.
        solution.status = LpStatus::kIterationLimit;
        return solution;
      }
      double infeas = 0.0;
      for (std::size_t i = 0; i < m_; ++i) {
        if (basis_[i] >= n_cols_) infeas += std::max(0.0, xb_[i]);
      }
      if (infeas > 1e-7) {
        solution.status = LpStatus::kInfeasible;
        return solution;
      }
      drive_artificials_out();
      for (std::size_t i = 0; i < m_; ++i) {
        ub_[n_cols_ + i] = 0.0;  // pin every artificial for phase 2
        if (basis_[i] >= n_cols_) xb_[i] = 0.0;
      }
    }
    finish_phase2(&solution);
    return solution;
  }

  /// Re-enters phase 2 from an exported basis. Returns false (leaving `out`
  /// untouched) when the basis does not fit this LP's data — wrong shape,
  /// duplicate columns, singular, or primal infeasible under the current
  /// rhs/bounds — in which case the caller falls back to a cold solve.
  bool solve_warm(const SimplexBasis& warm, LpSolution* out) {
    if (bounds_infeasible()) return false;
    if (warm.basic.size() != m_ || warm.at_upper.size() != n_cols_) return false;
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t j = warm.basic[i];
      if (j >= n_all_ || in_basis_[j]) return false;
      basis_[i] = j;
      in_basis_[j] = 1;
    }
    for (std::size_t j = 0; j < n_cols_; ++j) {
      if (!in_basis_[j] && warm.at_upper[j] != 0 && std::isfinite(ub_[j])) {
        at_upper_[j] = 1;
        value_[j] = ub_[j];
      }
    }
    if (!factorize()) return false;
    compute_basic_values();
    const double ftol = feasibility_tol();
    for (std::size_t i = 0; i < m_; ++i) {
      const double ub = ub_[basis_[i]];
      if (xb_[i] < -ftol || xb_[i] > ub + ftol) return false;
    }
    for (std::size_t i = 0; i < m_; ++i) {
      xb_[i] = std::min(std::max(xb_[i], 0.0), ub_[basis_[i]]);
    }
    finish_phase2(out);
    return true;
  }

 private:
  static constexpr int kRefactorInterval = 64;
  static constexpr int kStallLimit = 100;       // degenerate steps before Bland
  static constexpr double kDegenTol = 1e-10;    // step counts as progress above
  static constexpr double kTieTol = 1e-9;       // ratio-test tie window

  bool bounds_infeasible() const {
    for (std::size_t j = 0; j < n_struct_; ++j) {
      if (ub_[j] < 0.0) return true;  // x_j <= ub < 0 contradicts x_j >= 0
    }
    return false;
  }

  double feasibility_tol() const {
    double scale = 1.0;
    for (double v : b_) scale = std::max(scale, std::abs(v));
    return 1e-7 * scale;
  }

  /// Applies `f(row, coeff)` to every entry of column `j` (duplicates in a
  /// sparse row surface as repeated entries; all consumers accumulate).
  template <typename F>
  void for_col(std::size_t j, F&& f) const {
    if (j < n_struct_) {
      for (std::size_t e = col_ptr_[j]; e < col_ptr_[j + 1]; ++e) {
        f(col_entries_[e].first, col_entries_[e].second);
      }
    } else if (j < n_cols_) {
      f(slack_row_[j - n_struct_], slack_sign_[j - n_struct_]);
    } else {
      f(j - n_cols_, 1.0);
    }
  }

  /// Rebuilds binv_ from the current basis by Gauss-Jordan with partial
  /// pivoting. Returns false on a (numerically) singular basis.
  bool factorize() {
    ++total_refactors_;
    factor_work_.assign(m_ * m_, 0.0);
    double* B = factor_work_.data();
    double* inv = binv_.data();
    for (std::size_t p = 0; p < m_; ++p) {
      for_col(basis_[p], [&](std::size_t r, double a) { B[r * m_ + p] += a; });
    }
    for (std::size_t i = 0; i < m_; ++i) {
      for (std::size_t k = 0; k < m_; ++k) inv[i * m_ + k] = i == k ? 1.0 : 0.0;
    }
    for (std::size_t col = 0; col < m_; ++col) {
      std::size_t piv_row = col;
      for (std::size_t r = col + 1; r < m_; ++r) {
        if (std::abs(B[r * m_ + col]) > std::abs(B[piv_row * m_ + col])) piv_row = r;
      }
      if (std::abs(B[piv_row * m_ + col]) < 1e-11) return false;
      if (piv_row != col) {
        std::swap_ranges(B + piv_row * m_, B + (piv_row + 1) * m_, B + col * m_);
        std::swap_ranges(inv + piv_row * m_, inv + (piv_row + 1) * m_,
                         inv + col * m_);
      }
      double* B_col = B + col * m_;
      double* inv_col = inv + col * m_;
      const double scale = 1.0 / B_col[col];
      for (std::size_t k = 0; k < m_; ++k) {
        B_col[k] *= scale;
        inv_col[k] *= scale;
      }
      for (std::size_t r = 0; r < m_; ++r) {
        if (r == col) continue;
        const double f = B[r * m_ + col];
        if (f == 0.0) continue;
        double* B_r = B + r * m_;
        double* inv_r = inv + r * m_;
        for (std::size_t k = 0; k < m_; ++k) {
          B_r[k] -= f * B_col[k];
          inv_r[k] -= f * inv_col[k];
        }
      }
    }
    pivots_since_refactor_ = 0;
    return true;
  }

  /// x_B = Binv (b - N x_N) for the current nonbasic resting values.
  void compute_basic_values() {
    rhs_work_ = b_;
    for (std::size_t j = 0; j < n_all_; ++j) {
      if (in_basis_[j] || value_[j] == 0.0) continue;
      const double v = value_[j];
      for_col(j, [&](std::size_t r, double a) { rhs_work_[r] -= a * v; });
    }
    for (std::size_t i = 0; i < m_; ++i) {
      double v = 0.0;
      const double* row = binv_.data() + i * m_;
      for (std::size_t k = 0; k < m_; ++k) v += row[k] * rhs_work_[k];
      xb_[i] = v;
    }
  }

  /// Product-form basis-inverse update: pivot on alpha_[row].
  void update_binv(std::size_t row) {
    double* prow = binv_.data() + row * m_;
    const double inv_piv = 1.0 / alpha_[row];
    for (std::size_t k = 0; k < m_; ++k) prow[k] *= inv_piv;
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == row) continue;
      const double f = alpha_[i];
      if (f == 0.0) continue;
      double* irow = binv_.data() + i * m_;
      for (std::size_t k = 0; k < m_; ++k) irow[k] -= f * prow[k];
    }
    ++pivots_since_refactor_;
    ++total_pivots_;
  }

  /// One simplex run on the given cost vector (phase 1 or phase 2).
  /// Dantzig pricing with ascending-index tie-breaks; Bland's rule after a
  /// stall, which guarantees termination on degenerate problems.
  LpStatus iterate(const std::vector<double>& cost, int* iteration_counter) {
    const double eps = kSimplexEps;
    int stall = 0;
    bool bland = false;
    while (*iteration_counter < kSimplexMaxIterations) {
      ++*iteration_counter;
      if (pivots_since_refactor_ >= kRefactorInterval) {
        if (!factorize()) return LpStatus::kIterationLimit;
        compute_basic_values();
      }
      // BTRAN: y = c_B^T Binv.
      std::fill(y_.begin(), y_.end(), 0.0);
      for (std::size_t i = 0; i < m_; ++i) {
        const double cb = cost[basis_[i]];
        if (cb == 0.0) continue;
        const double* row = binv_.data() + i * m_;
        for (std::size_t k = 0; k < m_; ++k) y_[k] += cb * row[k];
      }
      // Pricing: a nonbasic column improves by moving up from its lower
      // bound (reduced cost < 0) or down from its upper bound (> 0).
      std::size_t entering = SIZE_MAX;
      double best = eps;
      for (std::size_t j = 0; j < n_all_; ++j) {
        if (in_basis_[j] || ub_[j] <= 0.0) continue;  // ub 0 = fixed at 0
        double d = cost[j];
        for_col(j, [&](std::size_t r, double a) { d -= y_[r] * a; });
        const double score = at_upper_[j] ? d : -d;
        if (score > (bland ? eps : best)) {
          entering = j;
          if (bland) break;
          best = score;
        }
      }
      if (entering == SIZE_MAX) return LpStatus::kOptimal;
      // FTRAN: alpha = Binv A_entering.
      std::fill(alpha_.begin(), alpha_.end(), 0.0);
      for_col(entering, [&](std::size_t r, double a) {
        for (std::size_t i = 0; i < m_; ++i) alpha_[i] += binv_[i * m_ + r] * a;
      });
      // Generalized ratio test. The entering variable moves by t in
      // direction `dir`; it is blocked by its own opposite bound (a bound
      // flip, no pivot) or by the first basic variable to hit a bound.
      const double dir = at_upper_[entering] ? -1.0 : 1.0;
      double t = std::isfinite(ub_[entering]) ? ub_[entering] : kInf;
      std::size_t leaving_row = SIZE_MAX;  // SIZE_MAX = bound flip
      for (std::size_t i = 0; i < m_; ++i) {
        const double a = dir * alpha_[i];
        double ratio;
        if (a > eps) {
          ratio = xb_[i] > 0.0 ? xb_[i] / a : 0.0;
        } else if (a < -eps) {
          const double ub_b = ub_[basis_[i]];
          if (!std::isfinite(ub_b)) continue;
          const double room = ub_b - xb_[i];
          ratio = room > 0.0 ? room / (-a) : 0.0;
        } else {
          continue;
        }
        if (ratio < t - kTieTol) {
          t = ratio;
          leaving_row = i;
        } else if (ratio <= t + kTieTol && leaving_row != SIZE_MAX) {
          // Tie: Bland needs the smallest variable index for termination;
          // otherwise prefer the larger pivot for stability.
          const bool take = bland
                                ? basis_[i] < basis_[leaving_row]
                                : std::abs(alpha_[i]) >
                                      std::abs(alpha_[leaving_row]) + 1e-12;
          if (take) {
            leaving_row = i;
            if (ratio < t) t = ratio;
          }
        }
      }
      if (!std::isfinite(t)) return LpStatus::kUnbounded;
      if (t > kDegenTol) {
        stall = 0;
        bland = false;
      } else if (++stall > kStallLimit) {
        bland = true;
      }
      if (leaving_row == SIZE_MAX) {
        // Bound flip: the entering variable runs to its other bound.
        for (std::size_t i = 0; i < m_; ++i) xb_[i] -= dir * t * alpha_[i];
        at_upper_[entering] ^= 1;
        value_[entering] = at_upper_[entering] ? ub_[entering] : 0.0;
      } else {
        const std::size_t leaving = basis_[leaving_row];
        const bool leaves_at_upper = dir * alpha_[leaving_row] < 0.0;
        const double enter_val = value_[entering] + dir * t;
        for (std::size_t i = 0; i < m_; ++i) {
          if (i != leaving_row) xb_[i] -= dir * t * alpha_[i];
        }
        update_binv(leaving_row);
        xb_[leaving_row] = enter_val;
        basis_[leaving_row] = entering;
        in_basis_[entering] = 1;
        in_basis_[leaving] = 0;
        at_upper_[leaving] = leaves_at_upper ? 1 : 0;
        value_[leaving] = leaves_at_upper ? ub_[leaving] : 0.0;
      }
    }
    return LpStatus::kIterationLimit;
  }

  /// Pivots basic artificials out degenerately where possible; rows whose
  /// reduced row is empty are redundant and keep their artificial (the
  /// exported-basis sentinel for that row).
  void drive_artificials_out() {
    for (std::size_t p = 0; p < m_; ++p) {
      if (basis_[p] < n_cols_) continue;
      const double* brow = binv_.data() + p * m_;
      std::size_t entering = SIZE_MAX;
      for (std::size_t q = 0; q < n_cols_ && entering == SIZE_MAX; ++q) {
        if (in_basis_[q]) continue;
        double v = 0.0;
        for_col(q, [&](std::size_t r, double a) { v += brow[r] * a; });
        if (std::abs(v) > 1e-9) entering = q;
      }
      if (entering == SIZE_MAX) continue;
      std::fill(alpha_.begin(), alpha_.end(), 0.0);
      for_col(entering, [&](std::size_t r, double a) {
        for (std::size_t i = 0; i < m_; ++i) alpha_[i] += binv_[i * m_ + r] * a;
      });
      const std::size_t leaving = basis_[p];
      update_binv(p);
      xb_[p] = value_[entering];  // degenerate pivot: x does not move
      basis_[p] = entering;
      in_basis_[entering] = 1;
      in_basis_[leaving] = 0;
      value_[leaving] = 0.0;
      at_upper_[leaving] = 0;
    }
  }

  void finish_phase2(LpSolution* solution) {
    LpStatus status = iterate(cost_, &solution->iterations);
    solution->status = status;
    if (status != LpStatus::kOptimal) return;
    if (pivots_since_refactor_ > 0 && factorize()) compute_basic_values();
    solution->x.assign(n_struct_, 0.0);
    for (std::size_t j = 0; j < n_struct_; ++j) {
      if (!in_basis_[j]) solution->x[j] = value_[j];
    }
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] < n_struct_) {
        double v = xb_[i];
        if (v < 0.0 && v > -1e-7) v = 0.0;
        solution->x[basis_[i]] = v;
      }
    }
    solution->objective = 0.0;
    for (std::size_t j = 0; j < n_struct_; ++j) {
      solution->objective += objective_[j] * solution->x[j];
    }
    solution->basis.basic = basis_;
    solution->basis.at_upper.assign(at_upper_.begin(),
                                    at_upper_.begin() +
                                        static_cast<std::ptrdiff_t>(n_cols_));
  }

  std::size_t m_;
  std::size_t n_struct_;
  std::size_t n_cols_ = 0;  // structural + slack/surplus
  std::size_t n_all_ = 0;   // + one artificial slot per row
  std::vector<double> objective_;
  std::vector<std::size_t> col_ptr_;                         // CSC, n_struct_+1
  std::vector<std::pair<std::size_t, double>> col_entries_;  // CSC entries
  std::vector<std::size_t> slack_row_;
  std::vector<double> slack_sign_;
  std::vector<ConstraintSense> row_sense_;  // after rhs normalization
  std::vector<double> b_;
  std::vector<double> ub_;
  std::vector<double> cost_;      // phase-2 cost, padded to n_all_
  std::vector<double> value_;     // nonbasic resting value per column
  std::vector<std::uint8_t> at_upper_;
  std::vector<std::uint8_t> in_basis_;
  std::vector<std::size_t> basis_;
  std::vector<double> binv_;         // dense m x m, row-major
  std::vector<double> factor_work_;  // B scratch for factorize()
  std::vector<double> xb_;
  std::vector<double> y_;
  std::vector<double> alpha_;
  std::vector<double> rhs_work_;
  int pivots_since_refactor_ = 0;

 public:
  // Lifetime totals, flushed to the obs counters once per solve_lp() call.
  std::uint64_t total_pivots_ = 0;
  std::uint64_t total_refactors_ = 0;
};

}  // namespace

namespace {
// One flush per solve keeps the instrumentation off the pivot loop
// (obs/counters.h hot-loop discipline).
void flush_simplex_counters(const RevisedSimplex& solver) {
  obs::count("lp.pivots", solver.total_pivots_);
  obs::count("lp.refactorizations", solver.total_refactors_);
}
}  // namespace

LpSolution solve_lp(const LinearProgram& lp) {
  RevisedSimplex solver(lp);
  LpSolution solution = solver.solve_cold();
  obs::count("lp.cold_solves");
  flush_simplex_counters(solver);
  return solution;
}

LpSolution solve_lp(const LinearProgram& lp, const SimplexBasis& warm) {
  if (warm.valid()) {
    RevisedSimplex solver(lp);
    LpSolution solution;
    if (solver.solve_warm(warm, &solution)) {
      obs::count("lp.warm_start_hits");
      flush_simplex_counters(solver);
      return solution;
    }
    flush_simplex_counters(solver);  // work spent on the failed warm attempt
  }
  obs::count("lp.warm_start_cold_fallbacks");
  RevisedSimplex cold(lp);
  LpSolution solution = cold.solve_cold();
  flush_simplex_counters(cold);
  return solution;
}

}  // namespace grefar

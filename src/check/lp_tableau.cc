#include "check/lp_tableau.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/check.h"

namespace grefar {

namespace {

// ---------------------------------------------------------------------------
// Dense tableau simplex. Works on the standard form min c^T x s.t. A x = b,
// x >= 0, b >= 0 with slack/surplus and artificial columns; variable upper
// bounds are expanded into singleton <= rows, reproducing the original
// engine's formulation exactly.
// ---------------------------------------------------------------------------
class Tableau {
 public:
  explicit Tableau(const LinearProgram& lp) : n_struct_(lp.num_vars()) {
    // Densify sparse rows and materialize finite bounds as rows.
    std::vector<std::vector<double>> dense;
    std::vector<ConstraintSense> senses;
    std::vector<double> rhs;
    for (const auto& c : lp.constraints()) {
      std::vector<double> row(n_struct_, 0.0);
      for (const auto& [j, a] : c.terms) row[j] += a;
      dense.push_back(std::move(row));
      senses.push_back(c.sense);
      rhs.push_back(c.rhs);
    }
    for (std::size_t j = 0; j < n_struct_; ++j) {
      const double ub = lp.upper_bounds()[j];
      if (!std::isfinite(ub)) continue;
      std::vector<double> row(n_struct_, 0.0);
      row[j] = 1.0;
      dense.push_back(std::move(row));
      senses.push_back(ConstraintSense::kLessEqual);
      rhs.push_back(ub);
    }
    m_ = dense.size();

    std::size_t num_slack = 0;
    for (ConstraintSense s : senses) {
      if (s != ConstraintSense::kEqual) ++num_slack;
    }
    n_total_ = n_struct_ + num_slack;  // artificials appended below
    rows_.assign(m_, std::vector<double>(n_total_, 0.0));
    rhs_.assign(m_, 0.0);
    basis_.assign(m_, SIZE_MAX);

    std::size_t slack_col = n_struct_;
    std::vector<std::size_t> needs_artificial;
    for (std::size_t i = 0; i < m_; ++i) {
      double sign = rhs[i] < 0 ? -1.0 : 1.0;
      for (std::size_t j = 0; j < n_struct_; ++j) rows_[i][j] = sign * dense[i][j];
      rhs_[i] = sign * rhs[i];

      ConstraintSense sense = senses[i];
      if (sign < 0) {
        if (sense == ConstraintSense::kLessEqual) sense = ConstraintSense::kGreaterEqual;
        else if (sense == ConstraintSense::kGreaterEqual) sense = ConstraintSense::kLessEqual;
      }
      switch (sense) {
        case ConstraintSense::kLessEqual:
          rows_[i][slack_col] = 1.0;
          basis_[i] = slack_col;  // slack is a valid basis column
          ++slack_col;
          break;
        case ConstraintSense::kGreaterEqual:
          rows_[i][slack_col] = -1.0;  // surplus
          ++slack_col;
          needs_artificial.push_back(i);
          break;
        case ConstraintSense::kEqual:
          needs_artificial.push_back(i);
          break;
      }
    }
    first_artificial_ = n_total_;
    n_total_ += needs_artificial.size();
    for (auto& row : rows_) row.resize(n_total_, 0.0);
    std::size_t art_col = first_artificial_;
    for (std::size_t i : needs_artificial) {
      rows_[i][art_col] = 1.0;
      basis_[i] = art_col;
      ++art_col;
    }

    cost_.assign(n_total_, 0.0);
    for (std::size_t j = 0; j < n_struct_; ++j) cost_[j] = lp.objective()[j];
  }

  LpSolution solve() {
    LpSolution solution;
    // Phase 1: minimize the sum of artificials.
    if (first_artificial_ < n_total_) {
      std::vector<double> phase1_cost(n_total_, 0.0);
      for (std::size_t j = first_artificial_; j < n_total_; ++j) phase1_cost[j] = 1.0;
      auto status = run_simplex(phase1_cost, &solution.iterations);
      if (status == LpStatus::kIterationLimit) {
        solution.status = status;
        return solution;
      }
      if (phase1_objective() > 1e-7) {
        solution.status = LpStatus::kInfeasible;
        return solution;
      }
      drive_artificials_out();
    }
    // Phase 2: original objective; artificial columns blocked.
    blocked_from_ = first_artificial_;
    auto status = run_simplex(cost_, &solution.iterations);
    solution.status = status == LpStatus::kOptimal ? LpStatus::kOptimal : status;
    if (solution.status != LpStatus::kOptimal) return solution;

    solution.x.assign(n_struct_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] < n_struct_) solution.x[basis_[i]] = rhs_[i];
    }
    solution.objective = 0.0;
    for (std::size_t j = 0; j < n_struct_; ++j) {
      solution.objective += cost_[j] * solution.x[j];
    }
    return solution;
  }

 private:
  double phase1_objective() const {
    double obj = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] >= first_artificial_) obj += rhs_[i];
    }
    return obj;
  }

  /// After phase 1, pivot any artificial still (degenerately) in the basis
  /// out, or mark its row as redundant.
  void drive_artificials_out() {
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] < first_artificial_) continue;
      std::size_t pivot_col = SIZE_MAX;
      for (std::size_t j = 0; j < first_artificial_; ++j) {
        if (std::abs(rows_[i][j]) > kSimplexEps) {
          pivot_col = j;
          break;
        }
      }
      if (pivot_col == SIZE_MAX) {
        // Redundant row; the artificial stays basic at value 0.
        continue;
      }
      pivot(i, pivot_col);
    }
  }

  /// Runs the simplex method with Bland's rule on the given cost vector.
  LpStatus run_simplex(const std::vector<double>& cost, int* iteration_counter) {
    for (int iter = 0; iter < kSimplexMaxIterations; ++iter) {
      ++*iteration_counter;
      std::size_t entering = SIZE_MAX;
      for (std::size_t j = 0; j < n_total_; ++j) {
        if (j >= blocked_from_) break;
        if (is_basic(j)) continue;
        double reduced = cost[j];
        for (std::size_t i = 0; i < m_; ++i) {
          reduced -= cost[basis_[i]] * rows_[i][j];
        }
        if (reduced < -kSimplexEps) {
          entering = j;  // Bland: first improving index
          break;
        }
      }
      if (entering == SIZE_MAX) return LpStatus::kOptimal;

      std::size_t leaving = SIZE_MAX;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < m_; ++i) {
        double a = rows_[i][entering];
        if (a > kSimplexEps) {
          double ratio = rhs_[i] / a;
          if (ratio < best_ratio - kSimplexEps ||
              (std::abs(ratio - best_ratio) <= kSimplexEps &&
               (leaving == SIZE_MAX || basis_[i] < basis_[leaving]))) {
            best_ratio = ratio;
            leaving = i;
          }
        }
      }
      if (leaving == SIZE_MAX) return LpStatus::kUnbounded;
      pivot(leaving, entering);
    }
    return LpStatus::kIterationLimit;
  }

  bool is_basic(std::size_t j) const {
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] == j) return true;
    }
    return false;
  }

  void pivot(std::size_t row, std::size_t col) {
    double p = rows_[row][col];
    GREFAR_CHECK_MSG(std::abs(p) > 0.0, "zero pivot");
    for (std::size_t j = 0; j < n_total_; ++j) rows_[row][j] /= p;
    rhs_[row] /= p;
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == row) continue;
      double factor = rows_[i][col];
      if (factor == 0.0) continue;
      for (std::size_t j = 0; j < n_total_; ++j) {
        rows_[i][j] -= factor * rows_[row][j];
      }
      rhs_[i] -= factor * rhs_[row];
      if (std::abs(rhs_[i]) < 1e-12) rhs_[i] = 0.0;
    }
    basis_[row] = col;
  }

  std::size_t m_ = 0;
  std::size_t n_struct_;
  std::size_t n_total_ = 0;
  std::size_t first_artificial_ = 0;
  std::size_t blocked_from_ = SIZE_MAX;  // phase 2 blocks artificial columns
  std::vector<std::vector<double>> rows_;
  std::vector<double> rhs_;
  std::vector<std::size_t> basis_;
  std::vector<double> cost_;
};

}  // namespace

LpSolution solve_lp_tableau(const LinearProgram& lp) {
  Tableau tableau(lp);
  return tableau.solve();
}

}  // namespace grefar

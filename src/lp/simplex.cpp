#include "megate/lp/simplex.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace megate::lp {

Solution SimplexSolver::solve(const Model& model) const {
  Solution sol;
  const std::size_t n = model.num_variables();
  const std::size_t m = model.num_constraints();
  sol.x.assign(n, 0.0);
  if (n == 0) {
    sol.status = Status::kOptimal;
    return sol;
  }

  // Tableau layout: m rows of [structural | slack | rhs], plus the
  // objective row (reduced costs, negated so "max" looks like textbook min).
  const std::size_t width = n + m + 1;
  if ((m + 1) * width > options_.max_tableau_doubles) {
    sol.status = Status::kInvalidModel;  // would not fit in memory
    return sol;
  }
  std::vector<double> tab((m + 1) * width, 0.0);
  auto at = [&](std::size_t r, std::size_t c) -> double& {
    return tab[r * width + c];
  };

  for (std::size_t j = 0; j < n; ++j) {
    for (const Entry& e : model.column(j)) at(e.row, j) += e.coef;
  }
  for (std::size_t i = 0; i < m; ++i) {
    at(i, n + i) = 1.0;                       // slack
    at(i, n + m) = model.rhs(i);              // rhs (>= 0, so basis feasible)
  }
  for (std::size_t j = 0; j < n; ++j) {
    at(m, j) = -model.objective_coef(j);      // reduced costs of max problem
  }

  std::vector<std::size_t> basis(m);
  for (std::size_t i = 0; i < m; ++i) basis[i] = n + i;

  const double tol = options_.tolerance;
  const std::size_t max_iter =
      options_.max_iterations ? options_.max_iterations : 50 * (m + n);
  // Switch to Bland's anti-cycling rule once we are past the point where a
  // non-degenerate run would have terminated.
  const std::size_t bland_after = 2 * (m + n);

  for (std::size_t iter = 0; iter < max_iter; ++iter) {
    // --- entering variable ---
    std::size_t pivot_col = width;  // sentinel
    if (iter < bland_after) {
      double best = -tol;
      for (std::size_t j = 0; j < n + m; ++j) {
        if (at(m, j) < best) {
          best = at(m, j);
          pivot_col = j;
        }
      }
    } else {
      for (std::size_t j = 0; j < n + m; ++j) {
        if (at(m, j) < -tol) {
          pivot_col = j;
          break;
        }
      }
    }
    if (pivot_col == width) {
      sol.status = Status::kOptimal;
      sol.iterations = iter;
      break;
    }

    // --- leaving variable (ratio test) ---
    std::size_t pivot_row = m;  // sentinel
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m; ++i) {
      const double a = at(i, pivot_col);
      if (a <= tol) continue;
      const double ratio = at(i, n + m) / a;
      if (ratio < best_ratio - tol ||
          (ratio < best_ratio + tol && pivot_row != m &&
           basis[i] < basis[pivot_row])) {  // Bland tie-break on basis index
        best_ratio = ratio;
        pivot_row = i;
      }
    }
    if (pivot_row == m) {
      sol.status = Status::kUnbounded;
      sol.iterations = iter;
      return sol;
    }

    // --- pivot ---
    const double pv = at(pivot_row, pivot_col);
    for (std::size_t c = 0; c < width; ++c) at(pivot_row, c) /= pv;
    for (std::size_t r = 0; r <= m; ++r) {
      if (r == pivot_row) continue;
      const double factor = at(r, pivot_col);
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c < width; ++c) {
        at(r, c) -= factor * at(pivot_row, c);
      }
      at(r, pivot_col) = 0.0;  // kill residual rounding noise
    }
    basis[pivot_row] = pivot_col;
    sol.iterations = iter + 1;
  }

  if (sol.status != Status::kOptimal) sol.status = Status::kIterLimit;

  for (std::size_t i = 0; i < m; ++i) {
    if (basis[i] < n) sol.x[basis[i]] = std::max(0.0, at(i, n + m));
  }
  sol.objective = model.objective_value(sol.x);
  return sol;
}

}  // namespace megate::lp

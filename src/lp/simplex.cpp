#include "megate/lp/simplex.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace megate::lp {
namespace {

/// Numerical tolerance for optimality / ratio tests.
constexpr double kTolerance = 1e-9;
/// Pivot cap per row-plus-column of the model.
constexpr std::size_t kMaxPivotsPerDim = 50;
/// A sparse row holding more than 1/kDenseShare of the columns turns
/// dense: past that, whole-row arithmetic beats per-cell bookkeeping.
constexpr std::size_t kDenseShare = 3;

/// One stored nonzero of a sparse row: `val` in column `col`, whose
/// column list holds this cell's Ref at position `at`.
struct Cell {
  std::uint32_t col;
  std::uint32_t at;
  double val;
};

/// A column's reference to one of its cells: the row and the cell's slot
/// in that row.
struct Ref {
  std::uint32_t row;
  std::uint32_t slot;
};

std::uint32_t u32(std::size_t v) { return static_cast<std::uint32_t>(v); }

}  // namespace

Solution SimplexSolver::solve(const Model& model) const {
  Solution sol;
  const std::size_t n = model.num_variables();
  const std::size_t m = model.num_constraints();
  sol.x.assign(n, 0.0);
  last_peak_entries_ = 0;
  if (n == 0) {
    sol.status = Status::kOptimal;
    return sol;
  }

  // Tableau over columns [structural | slack]: m rows, the rhs column and
  // the dense objective row (reduced costs, negated so "max" looks like
  // textbook min). A sparse row holds cells in no particular column
  // order; cols[c] holds one Ref per sparse cell of column c, and cells
  // and Refs point at each other. A cell that cancels to exactly zero is
  // dropped. A dense row holds every column and is in no column's list;
  // dense_rows lists those rows in ascending order.
  const std::size_t width = n + m;
  std::vector<std::vector<Cell>> rows(m);
  std::vector<std::vector<double>> dense(m);
  std::vector<std::uint32_t> dense_rows;
  std::vector<std::vector<Ref>> cols(width);
  // Drops column `col`'s Ref at `at`; the last Ref (and its cell) move in.
  auto unlist = [&](std::size_t col, std::uint32_t at) {
    std::vector<Ref>& list = cols[col];
    list[at] = list.back();
    list.pop_back();
    if (at < list.size()) rows[list[at].row][list[at].slot].at = at;
  };
  std::vector<double> rhs(m);
  std::vector<double> obj(width, 0.0);
  for (std::vector<Cell>& row : rows) row.reserve(8);
  for (std::size_t j = 0; j < n; ++j) {
    cols[j].reserve(model.column(j).size());
    for (const Entry e : model.column(j)) {
      cols[j].push_back({u32(e.row), u32(rows[e.row].size())});
      rows[e.row].push_back({u32(j), u32(cols[j].size() - 1), e.coef});
    }
    obj[j] = -model.objective_coef(j);
  }
  std::size_t entries = model.num_nonzeros() + m;
  for (std::size_t i = 0; i < m; ++i) {
    cols[n + i].push_back({u32(i), u32(rows[i].size())});
    rows[i].push_back({u32(n + i), 0, 1.0});  // slack
    rhs[i] = model.rhs(i);  // >= 0, so the all-slack basis is feasible
  }
  last_peak_entries_ = entries;

  std::vector<std::size_t> basis(m);
  for (std::size_t i = 0; i < m; ++i) basis[i] = n + i;

  const double tol = kTolerance;
  const std::size_t max_iter = kMaxPivotsPerDim * (m + n);
  // Switch to Bland's anti-cycling rule once we are past the point where a
  // non-degenerate run would have terminated.
  const std::size_t bland_after = 2 * (m + n);
  std::vector<Ref> hits;  // the pivot column's rows (slot unused if dense)
  // A sparse pivot row scattered by column (zero elsewhere), a dense one's
  // nonzeros, and the sparse-row update that last saw each column.
  std::vector<double> pivot_vals(width, 0.0);
  std::vector<Cell> pivot_cells;
  std::vector<std::size_t> seen(width, 0);
  std::size_t stamp = 0;

  for (std::size_t iter = 0; iter < max_iter; ++iter) {
    // --- entering variable ---
    std::size_t pivot_col = width;  // sentinel
    if (iter < bland_after) {  // Dantzig: the first column of the minimum
      const auto best = std::min_element(obj.begin(), obj.end());
      if (*best < -tol) pivot_col = best - obj.begin();
    } else {
      for (std::size_t j = 0; j < width; ++j) {
        if (obj[j] < -tol) {
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

    // --- leaving variable (ratio test, rows in ascending order) ---
    hits = cols[pivot_col];
    for (const std::uint32_t r : dense_rows) {
      if (dense[r][pivot_col] != 0.0) hits.push_back({r, 0});
    }
    std::sort(hits.begin(), hits.end(),
              [](const Ref& a, const Ref& b) { return a.row < b.row; });
    auto value = [&](const Ref& h) -> double& {
      return dense[h.row].empty() ? rows[h.row][h.slot].val
                                  : dense[h.row][pivot_col];
    };
    const Ref* pivot = nullptr;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (const Ref& h : hits) {
      const double a = value(h);
      if (a <= tol) continue;
      const double ratio = rhs[h.row] / a;
      if (ratio < best_ratio - tol ||
          (ratio < best_ratio + tol && pivot != nullptr &&
           basis[h.row] < basis[pivot->row])) {  // Bland tie-break
        best_ratio = ratio;
        pivot = &h;
      }
    }
    if (pivot == nullptr) {
      sol.status = Status::kUnbounded;
      sol.iterations = iter;
      return sol;
    }

    // --- pivot: each row of the pivot column costs the pivot row's
    // entries (plus its own if sparse); a non-pivot row loses its
    // pivot-column entry ---
    const std::size_t pivot_row = pivot->row;
    const bool pdense = !dense[pivot_row].empty();
    const double pv = value(*pivot);
    const double* pvals = pivot_vals.data();
    if (pdense) {
      std::vector<double>& w = dense[pivot_row];
      pivot_cells.clear();
      for (std::size_t c = 0; c < width; ++c) {
        if ((w[c] /= pv) != 0.0) pivot_cells.push_back({u32(c), 0, w[c]});
      }
      pvals = w.data();
    } else {
      for (Cell& c : rows[pivot_row]) pivot_vals[c.col] = (c.val /= pv);
    }
    const std::vector<Cell>& prow = pdense ? pivot_cells : rows[pivot_row];
    rhs[pivot_row] /= pv;
    for (const Ref& h : hits) {
      const std::uint32_t r = h.row;
      if (r == pivot_row) continue;
      const double factor = value(h);
      rhs[r] -= factor * rhs[pivot_row];
      if (!dense[r].empty()) {
        for (const Cell& p : prow) dense[r][p.col] -= factor * p.val;
        dense[r][pivot_col] = 0.0;  // kill residual rounding noise
        continue;
      }
      std::vector<Cell>& row = rows[r];
      const std::size_t before = row.size();
      ++stamp;
      // In place: a column the pivot row lacks subtracts factor * 0.0,
      // which leaves a nonzero entry as it is. A dropped cell's slot goes
      // to the row's last cell, which is visited next. The pivot column's
      // list is rebuilt below, so its cells need no bookkeeping.
      for (std::size_t k = 0; k < row.size();) {
        Cell& c = row[k];
        seen[c.col] = stamp;
        c.val -= factor * pvals[c.col];
        if (c.val != 0.0) {
          ++k;
          continue;
        }
        if (c.col != pivot_col) unlist(c.col, c.at);  // cancelled to zero
        c = row.back();
        row.pop_back();
        if (k < row.size() && c.col != pivot_col) {
          cols[c.col][c.at].slot = u32(k);
        }
      }
      for (const Cell& p : prow) {
        if (seen[p.col] == stamp) continue;
        if (const double v = 0.0 - factor * p.val; v != 0.0) {
          cols[p.col].push_back({r, u32(row.size())});  // fill-in
          row.push_back({p.col, u32(cols[p.col].size() - 1), v});
        }
      }
      entries = entries + row.size() - before;
      if (kDenseShare * row.size() > width) {
        dense[r].assign(width, 0.0);
        for (const Cell& c : row) {
          dense[r][c.col] = c.val;
          unlist(c.col, c.at);
        }
        entries = entries + width - row.size();
        std::vector<Cell>().swap(row);
        dense_rows.insert(
            std::upper_bound(dense_rows.begin(), dense_rows.end(), r), r);
      }
    }
    if (const double factor = obj[pivot_col]; factor != 0.0) {
      for (const Cell& p : prow) obj[p.col] -= factor * p.val;
      obj[pivot_col] = 0.0;  // kill residual rounding noise
    }
    for (const Cell& p : prow) pivot_vals[p.col] = 0.0;
    cols[pivot_col].clear();
    if (!pdense) {
      cols[pivot_col].push_back({u32(pivot_row), pivot->slot});
      rows[pivot_row][pivot->slot].at = 0;
    }
    last_peak_entries_ = std::max(last_peak_entries_, entries);
    basis[pivot_row] = pivot_col;
    sol.iterations = iter + 1;
  }

  if (sol.status != Status::kOptimal) sol.status = Status::kIterLimit;

  for (std::size_t i = 0; i < m; ++i) {
    if (basis[i] < n) sol.x[basis[i]] = std::max(0.0, rhs[i]);
  }
  sol.objective = model.objective_value(sol.x);
  return sol;
}

}  // namespace megate::lp

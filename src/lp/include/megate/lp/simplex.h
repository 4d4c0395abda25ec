#pragma once
// Exact sparse tableau simplex for small/medium packing LPs.
//
// Because every model handled here is `max c'x, Ax <= b, x >= 0` with
// b >= 0, the all-slack basis is primal feasible and no phase-1 is needed.
// The solver pivots with Dantzig's rule and falls back to Bland's rule once
// the iteration count suggests degeneracy, which guarantees termination.
//
// The tableau is stored row-wise with only its nonzeros, plus a list per
// column of where they sit; a row that fills past a third of the columns
// is held dense. A pivot touches only the pivot column's rows and the
// pivot row's columns, and memory follows the nonzeros, not the cells.
// Every cell is computed as the dense tableau computes it, so pivots,
// iterations and x are bitwise those of the textbook dense tableau
// (tests/simplex_diff_test.cpp holds that dense code as the oracle).
//
// This is the reference ("Gurobi substitute") used for correctness: unit
// tests cross-check the approximate packing solver and the MegaTE pipeline
// against it.

#include <cstddef>

#include "megate/lp/model.h"

namespace megate::lp {

class SimplexSolver {
 public:
  /// Solves the model from the all-slack basis.
  Solution solve(const Model& model) const;

  /// The most nonzeros the constraint rows of the last solve's tableau
  /// held at once. Exposed for the LP micro-benchmark's memory contract.
  std::size_t last_peak_entries() const noexcept { return last_peak_entries_; }

 private:
  mutable std::size_t last_peak_entries_ = 0;
};

}  // namespace megate::lp

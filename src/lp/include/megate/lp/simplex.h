#pragma once
// Exact dense simplex for small/medium packing LPs.
//
// Because every model handled here is `max c'x, Ax <= b, x >= 0` with
// b >= 0, the all-slack basis is primal feasible and no phase-1 is needed.
// The solver keeps a dense tableau, pivots with Dantzig's rule and falls
// back to Bland's rule once the iteration count suggests degeneracy, which
// guarantees termination.
//
// This is the reference ("Gurobi substitute") used for correctness: unit
// tests cross-check the approximate packing solver and the MegaTE pipeline
// against it on instances small enough for a dense tableau.

#include <cstddef>

#include "megate/lp/model.h"

namespace megate::lp {

struct SimplexOptions {
  /// Hard cap on pivots; 0 -> 50 * (rows + cols).
  std::size_t max_iterations = 0;
  /// Dense tableau memory guard: refuse models whose tableau would exceed
  /// this many doubles (default ~512 MB). Status kInvalidModel is returned,
  /// mirroring the out-of-memory failures the paper reports for LP-all.
  std::size_t max_tableau_doubles = 64ull * 1000 * 1000;
};

class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  /// Solves the model from the all-slack basis.
  Solution solve(const Model& model) const;

 private:
  SimplexOptions options_;
};

}  // namespace megate::lp

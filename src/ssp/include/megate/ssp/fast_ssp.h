#pragma once
// FastSSP — the paper's semi-DP subset-sum approximation (§4.2 + App. A.2).
//
// Given a tunnel allocation F and many small endpoint demands, FastSSP runs
// four steps:
//   1. Clustering:    pack demands into m clusters of size >= M = eps'*F/3.
//   2. Normalization: quantize clusters by delta = eps'*M/3 (= eps'^2*F/9).
//   3. DP:            exact subset-sum over the m normalized clusters.
//   4. Greedy:        sorted-based greedy over the residual small flows.
//
// Complexity O(m * F/delta + n log n) versus O(n * F) for plain DP; the
// reported error bound is beta <= min(residual demand)/F (Appendix A.2).

#include <cstddef>
#include <span>

#include "megate/ssp/subset_sum.h"

namespace megate::ssp {

struct FastSspOptions {
  /// The paper's eps' ("close to 0"); controls M and delta.
  double epsilon_prime = 0.1;
};

/// Statistics of one FastSSP run, for tests and the ablation bench.
struct FastSspStats {
  std::size_t num_clusters = 0;      ///< m
  double threshold = 0.0;            ///< M
  double resolution = 0.0;           ///< delta
  std::size_t dp_selected = 0;       ///< flows selected by the DP stage
  std::size_t greedy_selected = 0;   ///< flows selected by the residual pass
  double error_bound = 0.0;          ///< beta <= min(residual)/F
};

/// Selects a subset of `values` with total <= capacity, approximately
/// maximizing the total. Values must be >= 0. Returns the selection;
/// fills `stats` when non-null.
Selection fast_ssp(std::span<const double> values, double capacity,
                   const FastSspOptions& options = {},
                   FastSspStats* stats = nullptr);

}  // namespace megate::ssp

#pragma once
// Approximate solver for large packing LPs.
//
// Implements the Garg–Könemann multiplicative-weights scheme with
// Fleischer's round-robin phase optimization, generalized to arbitrary
// packing columns with positive profits:
//
//     max c'x   s.t.  Ax <= b, x >= 0,  A >= 0, b >= 0, c > 0.
//
// Guarantees a (1 - 3*epsilon)-approximation and — after the final
// feasibility clamp — an exactly feasible solution. This is what lets
// MegaTE's MaxSiteFlow run on hyper-scale instances where a dense exact
// solver would exhaust memory (the paper uses Gurobi on a 24-thread Xeon;
// see DESIGN.md for the substitution argument).
//
// `solve` is one serial loop and is deterministic: the same model and
// options give the same bits on every run (DESIGN.md §12).

#include <cstddef>
#include <limits>

#include "megate/lp/model.h"

namespace megate::obs {
class MetricsRegistry;
}

namespace megate::lp {

struct PackingOptions {
  /// Sentinel: derive the routing-step cap from the theory bound.
  static constexpr std::size_t kAutoIterations =
      std::numeric_limits<std::size_t>::max();

  /// Approximation parameter; the solution is >= (1-3*epsilon) * OPT.
  /// Must satisfy 0 < epsilon < 0.5 or solve returns kInvalidModel.
  double epsilon = 0.1;
  /// Safety cap on total routing steps. kAutoIterations -> automatic from
  /// the theory bound; 0 is rejected with kInvalidModel (a zero-step
  /// budget can never make progress — returning an all-zero "solution"
  /// as kOptimal would be a silent lie).
  std::size_t max_iterations = kAutoIterations;
  /// Optional observability registry: the solver emits the
  /// "lp.packing" span (children: flatten/phases/clamp/refill) plus
  /// the lp.packing.{solves,steps,phases_routed} counters. Null = zero
  /// overhead.
  obs::MetricsRegistry* metrics = nullptr;
};

class PackingSolver {
 public:
  explicit PackingSolver(PackingOptions options = {}) : options_(options) {}

  Solution solve(const Model& model) const;

  /// Upper bound on OPT derived from the final dual lengths; valid for any
  /// run that returned kOptimal. Exposed for the LP ablation bench.
  double last_dual_bound() const noexcept { return last_dual_bound_; }

 private:
  PackingOptions options_;
  mutable double last_dual_bound_ = 0.0;
};

}  // namespace megate::lp

#pragma once
// Shared feasibility-repair kernel.
//
// Both allocation fast paths in this repo end in the same correction
// problem: a cheap forward pass (TEAL's softmax spread, the learned
// allocator's per-pair split prediction) proposes a dense
// flow x tunnel allocation tensor per site pair that ignores link
// capacities, and a projection/refill loop must make it feasible without
// giving up satisfied demand. This kernel is that loop, factored out of
// TealSolver::solve into a structure-of-arrays arena (util::FlatRows —
// one contiguous buffer per quantity, no per-iteration allocation). It
// runs serially: sharding the per-pair passes over a thread pool bought
// the learned lane nothing measurable, even at TWAN scale (DESIGN.md §15).
//
// Per iteration (TealSolver's ADMM-style schedule, unchanged):
//   1. accumulate per-tunnel sums and per-link usage;
//   2. per-link multiplicative projection factor — damped
//      (0.5 * (1 + cap/usage)) on early iterations, hard (cap/usage) on
//      the last so the output is capacity-feasible;
//   3. scale every tunnel's column by the min factor along its links;
//   4. (non-last iterations) refill: redistribute each pair's unallocated
//      remainder onto its tunnels against the global residual, ascending
//      tunnel order, pro-rata across the pair's flows.
//
// Bit-identity contract: run() produces byte-for-byte the allocations of
// the pre-refactor TealSolver loop — the floating-point operation sequence
// per memory cell is the original's. Enforced by tests/learned_test.cpp's
// TealRepairParity suite against an embedded copy of the original loop.

#include <cstddef>
#include <span>
#include <vector>

#include "megate/topo/graph.h"
#include "megate/util/soa.h"

namespace megate::te {

struct RepairStats {
  /// True when the post-repair allocations fit every link within
  /// capacity * (1 + 1e-9) — the hard final projection guarantees this
  /// up to rounding; false signals a genuine kernel bug upstream.
  bool feasible = false;
  double max_utilization = 0.0;
  /// Sum of the repaired tensor (the satisfied demand it represents).
  double allocated_gbps = 0.0;
};

/// Reusable SoA arena + the repair loop. Build order per problem:
/// reset(capacity), then per pair: begin_pair(demands), add_tunnel(links)
/// for each usable tunnel, finish_pair(); write the initial allocations
/// through x(pair) (flow-major: x[flow * tunnels + tunnel]); run(n).
/// The instance owns all scratch and reuses it across problems.
class RepairKernel {
 public:
  /// Starts a fresh problem. `capacity[e]` is the usable capacity of link
  /// e in Gbps (0 for down links).
  void reset(std::span<const double> capacity);

  /// Opens a new pair holding `flow_demands.size()` flows; returns its
  /// index. Pairs with no usable tunnel should simply not be added.
  std::size_t begin_pair(std::span<const double> flow_demands);
  /// Adds one usable tunnel (its link list) to the open pair.
  void add_tunnel(std::span<const topo::EdgeId> links);
  /// Closes the open pair and zero-initializes its flow x tunnel tensor.
  void finish_pair();

  std::size_t num_pairs() const noexcept { return demands_.num_rows(); }
  std::size_t num_tunnels(std::size_t pair) const noexcept {
    return pair_tunnels_[pair + 1] - pair_tunnels_[pair];
  }
  /// The pair's dense allocation tensor, flow-major. Valid until reset().
  std::span<double> x(std::size_t pair) noexcept { return x_.row(pair); }
  std::span<const double> x(std::size_t pair) const noexcept {
    return x_.row(pair);
  }

  /// Runs `iterations` projection/refill passes; the final pass projects
  /// hard. Throws std::invalid_argument when `iterations` is 0.
  RepairStats run(std::size_t iterations);

 private:
  /// Per-tunnel column sums into tunnel_sums_ (flow-major order), merged
  /// into usage_ in pair order.
  void accumulate_usage();

  std::vector<double> capacity_;
  util::FlatRows<double> demands_;        ///< one row per pair
  util::FlatRows<double> x_;              ///< one row per pair, flow-major
  util::FlatRows<topo::EdgeId> tunnel_links_;  ///< one row per tunnel
  std::vector<std::size_t> pair_tunnels_{0};   ///< pair -> tunnel row range

  // Scratch, reused across run() calls and iterations.
  std::vector<double> tunnel_sums_;  ///< aligned with tunnel rows
  std::vector<double> per_flow_;     ///< the refilled pair's shortfalls
  std::vector<double> usage_;
  std::vector<double> scale_;
  std::vector<double> residual_;
};

}  // namespace megate::te

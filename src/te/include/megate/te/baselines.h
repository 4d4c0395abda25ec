#pragma once
// The three state-of-the-art baselines of the paper's evaluation (§6.1).
//
// All three operate at endpoint granularity with *divisible* flows (they
// are conventional TE systems: the data plane later hashes each endpoint
// flow onto a tunnel, see assign_flows_by_hash), so their working set and
// runtime scale with the number of endpoint flows — the scaling wall that
// motivates MegaTE. See DESIGN.md §2 for how each reimplementation maps to
// the published system.

#include <cstddef>

#include "megate/te/repair_kernel.h"
#include "megate/te/types.h"

namespace megate::te {

/// LP-all: one fractional multi-commodity-flow LP over every endpoint
/// pair (the paper's optimality reference). Exact on small instances
/// (simplex while (rows+1)*(rows+vars+1) <= 2M), (1-eps)-approximate
/// packing solve (eps = 0.05) on larger ones, and an explicit refusal
/// ("out of memory" in the paper) beyond max_flows.
struct LpAllOptions {
  /// Refuse instances with more endpoint flows than this (emulates the
  /// paper's OOM wall for hyper-scale topologies).
  std::size_t max_flows = 2'000'000;
};

class LpAllSolver final : public Solver {
 public:
  explicit LpAllSolver(LpAllOptions options = {}) : options_(options) {}
  std::string name() const override { return "LP-all"; }
  TeSolution solve(const TeProblem& problem) override;

 private:
  LpAllOptions options_;
};

/// NCFlow-like: contracts sites into max(2, ceil(cbrt(V))) clusters; each
/// site pair is restricted to tunnels following its best tunnel's cluster
/// sequence, and link capacity is statically partitioned across
/// cluster-pair subproblems, which are then solved independently
/// (parallelizable, packing solver at eps = 0.07) at endpoint granularity.
/// Faster than LP-all, loses a few percent of demand to the restriction +
/// static partitioning — the behaviour reported in Figs. 9-10.
struct NcFlowOptions {
  std::size_t max_flows = 4'000'000;
};

class NcFlowSolver final : public Solver {
 public:
  explicit NcFlowSolver(NcFlowOptions options = {}) : options_(options) {}
  std::string name() const override { return "NCFlow"; }
  TeSolution solve(const TeProblem& problem) override;

 private:
  NcFlowOptions options_;
};

/// TEAL-like: a fast dense initialization (the GNN forward pass stand-in:
/// demands spread over tunnels by a softmax on tunnel weight) followed by
/// ADMM-style capacity-projection iterations. One pass per iteration over
/// the dense flow x tunnel allocation array — fast, GPU-friendly shape,
/// slightly sub-optimal, memory linear in endpoint flows.
struct TealOptions {
  std::size_t max_flows = 4'000'000;
};

class TealSolver final : public Solver {
 public:
  /// Sharpness of the initial split: exp(-T * (weight - 1)) per tunnel.
  static constexpr double kSoftmaxTemperature = 2.0;
  /// ADMM-style capacity-projection passes per solve.
  static constexpr std::size_t kAdmmIterations = 12;

  explicit TealSolver(TealOptions options = {}) : options_(options) {}
  std::string name() const override { return "TEAL"; }
  TeSolution solve(const TeProblem& problem) override;

 private:
  TealOptions options_;
  RepairKernel kernel_;  ///< SoA arena reused across solves
};

}  // namespace megate::te

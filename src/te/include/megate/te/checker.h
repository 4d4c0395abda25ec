#pragma once
// Validates TE solutions against the paper's constraints (1a)-(1c):
// no link overload, each endpoint flow on at most one tunnel, and
// aggregated tunnel allocations consistent with assigned flows.
// Every solver's output goes through this in tests and benches.

#include <array>
#include <string>
#include <vector>

#include "megate/te/types.h"

namespace megate::te {

struct CheckOptions {
  /// Relative capacity slack tolerated (floating-point accumulation).
  double capacity_tolerance = 1e-6;
  /// When true, require flow_tunnel assignments (endpoint-granular
  /// solvers); fractional-only solutions then fail the check.
  bool require_flow_assignment = false;
};

struct CheckResult {
  bool ok = true;
  std::vector<std::string> violations;
  double max_link_utilization = 0.0;

  explicit operator bool() const noexcept { return ok; }
};

CheckResult check_solution(const TeProblem& problem, const TeSolution& sol,
                           const CheckOptions& options = {});

/// Per-link usage in Gbps implied by the solution. Uses flow assignments
/// when present (exact data-plane view), falling back to the fractional
/// F_{k,t} allocations otherwise.
std::vector<double> link_usage_gbps(const TeProblem& problem,
                                    const TeSolution& sol);

/// Satisfied demand per QoS class, index 0..2 for kClass1..kClass3.
/// Requires flow_tunnel assignments (endpoint-granular solvers); pairs
/// without them contribute nothing.
std::array<double, 3> satisfied_by_class(const TeProblem& problem,
                                         const TeSolution& sol);

}  // namespace megate::te

#pragma once
// TE problem/solution types shared by MegaTE and the baseline solvers
// (the paper's Table 1 notation).

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "megate/tm/traffic.h"
#include "megate/topo/graph.h"
#include "megate/topo/tunnels.h"

namespace megate::te {

/// A TE instance: site graph G(V,E), pre-established tunnels T_k, and the
/// endpoint-granular traffic matrix {d_k^i}. All referenced objects are
/// owned by the caller and must outlive the solve.
struct TeProblem {
  const topo::Graph* graph = nullptr;
  const topo::TunnelSet* tunnels = nullptr;
  const tm::TrafficMatrix* traffic = nullptr;
  /// Objective path-length penalty (the paper's epsilon in Eq. 1).
  /// Large enough that the solvers actually trade a sliver of throughput
  /// for shorter tunnels (with w_t ~ 1..3 the profit spread is a few
  /// percent), small enough that throughput dominates.
  double epsilon = 0.02;

  bool valid() const noexcept {
    return graph != nullptr && tunnels != nullptr && traffic != nullptr;
  }
};

/// Allocation for one site pair k.
struct PairAllocation {
  /// F_{k,t}: bandwidth on each tunnel, aligned with tunnels(k)'s order.
  std::vector<double> tunnel_alloc;
  /// Per endpoint flow (aligned with the traffic matrix's flow vector):
  /// index of the assigned tunnel, or -1 if the flow was rejected.
  /// Empty for solvers that only produce aggregated (fractional) splits.
  std::vector<std::int32_t> flow_tunnel;
};

/// Result of a TE solve.
struct TeSolution {
  std::string solver_name;
  std::unordered_map<topo::SitePair, PairAllocation, topo::SitePairHash>
      pairs;
  double satisfied_gbps = 0.0;
  double total_demand_gbps = 0.0;
  double solve_time_s = 0.0;
  std::size_t iterations = 0;
  /// Approximate peak working-set the solver had to materialize, in bytes.
  /// Used by the Fig. 9 harness to report the paper's out-of-memory
  /// cutoffs honestly (our substitute solvers are leaner than Gurobi).
  std::size_t est_memory_bytes = 0;
  /// False when the solver declined the instance (e.g. too large).
  bool solved = true;

  double satisfied_ratio() const noexcept {
    return total_demand_gbps > 0.0 ? satisfied_gbps / total_demand_gbps : 0.0;
  }
};

/// Common solver interface (MegaTE + the three baselines of §6.1).
class Solver {
 public:
  virtual ~Solver() = default;
  virtual std::string name() const = 0;
  virtual TeSolution solve(const TeProblem& problem) = 0;
};

/// For fractional solvers (LP-all, NCFlow, TEAL): emulates what the data
/// plane actually does with an aggregated split — each endpoint flow is
/// five-tuple-hashed onto a tunnel with probability proportional to
/// F_{k,t}. Fills `flow_tunnel` on every pair of `sol` in place.
/// Deterministic in `seed`.
void assign_flows_by_hash(const TeProblem& problem, TeSolution& sol,
                          std::uint64_t seed);

/// Demand-weighted mean latency (ms) of assigned flows of class `q`
/// (0 = every class). Requires flow_tunnel assignments.
double mean_latency_ms(const TeProblem& problem, const TeSolution& sol,
                       int qos_filter);

/// Same but counting hops instead of ms — the paper's latency metric for
/// the non-TWAN topologies ("we simplify the packet latency as the number
/// of hops").
double mean_latency_hops(const TeProblem& problem, const TeSolution& sol,
                         int qos_filter);

}  // namespace megate::te

#pragma once
// MaxSiteFlow (paper Eq. 2): the first-layer LP of the MegaTE contraction.
//
//   max  sum_{k,t} F_{k,t} - epsilon * sum_{k,t} w_t F_{k,t}
//   s.t. sum_t F_{k,t} <= D_k            (site-pair demand)
//        sum_{k,t} F_{k,t} L(t,e) <= c_e (link capacity)
//        F_{k,t} >= 0
//
// Solved either exactly (dense simplex; small instances, tests) or by the
// approximate packing solver (hyper-scale). kAuto picks by tableau size.
//
// An exact presolve runs before either backend (DESIGN.md §16): a link
// row whose reachable demand fits its capacity is implied by the demand
// rows and is not emitted, and a pair whose best tunnel crosses only such
// rows is fixed at its full demand on that tunnel. The backend then sees
// only the remaining pairs and rows.

#include <unordered_map>
#include <vector>

#include "megate/lp/model.h"
#include "megate/topo/graph.h"
#include "megate/topo/tunnels.h"

namespace megate::util {
class ThreadPool;
}

namespace megate::te {

struct SiteLpOptions {
  /// kAuto picks the simplex or the packing solver by the presolved LP's
  /// tableau size (max_simplex_cells below).
  enum class Backend { kAuto, kSimplex, kPacking };
  Backend backend = Backend::kAuto;
  /// Approximation parameter for the packing backend.
  double packing_epsilon = 0.07;
  /// kAuto picks the simplex while (rows+1)*(rows+vars+1) of the presolved
  /// LP stays below this.
  std::size_t max_simplex_cells = 4'000'000;
  /// Maximum SR hops (= tunnel link count) a column may represent; 0 =
  /// unlimited. Tunnels over the budget never become LP variables, so
  /// stage 1 cannot allocate demand the dataplane could not encapsulate.
  /// Normally build_tunnels already enforces this (same knob, one value,
  /// threaded by MegaTeSolver); the stage-1 filter is the belt-and-braces
  /// layer for tunnel sets built elsewhere.
  std::uint32_t max_sr_hops = 0;
};

struct SiteLpResult {
  /// F_{k,t} per site pair, aligned with tunnels(k)'s order. Pairs with no
  /// demand or no alive tunnel are absent.
  std::unordered_map<topo::SitePair, std::vector<double>, topo::SitePairHash>
      alloc;
  double objective = 0.0;
  /// Upper bound on the LP optimum of a kOptimal result: the objective
  /// itself on the simplex backend, the packing solver's dual bound plus
  /// the presolve-fixed objective on the packing backend.
  double dual_bound = 0.0;
  lp::Status status = lp::Status::kInvalidModel;
  std::size_t iterations = 0;
  /// Size of the LP the backend actually solved, after the presolve.
  std::size_t num_variables = 0;
  std::size_t num_constraints = 0;
  /// Pairs the presolve fixed at full demand on their best tunnel (they
  /// have no LP columns).
  std::size_t pairs_fixed = 0;
  /// Live link rows the presolve left out because the demand rows imply
  /// them (including links no usable column crosses).
  std::size_t rows_dropped = 0;
  bool used_simplex = false;
};

/// Solves MaxSiteFlow for the given site-level demands D_k.
/// `capacity_override`, when non-empty, replaces each link's capacity
/// (used by the QoS-sequenced solve on residual capacity); entries must be
/// >= 0 and the vector must have one entry per link. Every call solves
/// from scratch: the result depends only on the arguments.
SiteLpResult solve_max_site_flow(
    const topo::Graph& g, const topo::TunnelSet& tunnels,
    const std::unordered_map<topo::SitePair, double, topo::SitePairHash>&
        site_demands,
    const std::vector<double>& capacity_override, double epsilon,
    const SiteLpOptions& options = {});

/// §8 extension ("Accelerating MaxSiteFlow solving"): NCFlow-style
/// contraction applied to the *first stage only*. Sites are grouped into
/// `clusters` clusters; site pairs are bucketed by their cluster pair;
/// each link's capacity is statically partitioned across buckets in
/// proportion to estimated usage; the resulting independent sub-LPs are
/// solved in parallel (`threads`, 0 = hardware) and merged. Trades a few
/// percent of LP objective for a near-linear latency cut on topologies
/// with many sites — quantified by bench/ablation_stage1.
/// When `pool` is non-null the buckets run on it and `threads` is ignored,
/// so callers that solve every interval can reuse one pool.
SiteLpResult solve_max_site_flow_clustered(
    const topo::Graph& g, const topo::TunnelSet& tunnels,
    const std::unordered_map<topo::SitePair, double, topo::SitePairHash>&
        site_demands,
    const std::vector<double>& capacity_override, double epsilon,
    std::size_t clusters, const SiteLpOptions& options = {},
    std::size_t threads = 0, util::ThreadPool* pool = nullptr);

}  // namespace megate::te

#pragma once
// Pre-established TE tunnels (the paper's T_k, Table 1).
//
// For every ordered site pair k the control plane pre-establishes up to
// `tunnels_per_pair` low-latency paths. Two selection backends exist:
//
//   - TunnelSelection::kKsp (default): Yen's k-shortest-paths per pair;
//     a reachable pair Yen leaves without an in-budget path gets its
//     hop-shortest path when that fits the hop budget.
//   - TunnelSelection::kCentrality: a middlepoint stage first picks a
//     small group of high-betweenness sites (greedy group betweenness
//     over the latency-shortest-path trees), then each pair's candidates
//     are its direct latency- and hop-shortest paths plus <= 2-segment
//     compositions through the selected middlepoints (on both metrics).
//     Comparable allocations with fewer tunnels, which directly shrinks
//     every stage-1 LP.
//
// Under either backend a reachable pair gets a tunnel exactly when its
// fewest-hops path fits the hop budget.
//
// The SR hop budget belongs to the TunnelSet: the SR header carries one
// u32 per hop and the dataplane refuses to encapsulate over-long hop lists
// (dataplane::kSrMaxHops), so the budget must be a *planning* constraint,
// not a runtime surprise. build_tunnels records TunnelOptions::max_sr_hops
// on the set it returns, both backends search under it, and set_tunnels
// refuses any tunnel over it — so every tunnel a solver can see fits, and
// no solver re-checks it. A tunnel's SR hop count equals its link count
// (one hop per traversed link).
//
// Each tunnel carries the paper's weight w_t (derived from its latency:
// higher latency -> larger weight), which both the MaxSiteFlow objective
// and the FastSSP tunnel ordering consume.
//
// A TunnelSet keeps a content fingerprint up to date as pairs are set:
// set_tunnels XORs the replaced pair's hash out and the new one in, so
// reading it is O(1) and the incremental solver no longer rehashes every
// tunnel each interval to notice a repair (DESIGN.md §8).

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "megate/topo/graph.h"
#include "megate/topo/shortest_path.h"

namespace megate::obs {
class MetricsRegistry;
}

namespace megate::topo {

/// One pre-established tunnel for a site pair.
struct Tunnel {
  std::vector<EdgeId> links;
  double latency_ms = 0.0;
  double weight = 0.0;  ///< w_t: normalized latency, ascending == preferred

  std::size_t hops() const noexcept { return links.size(); }
  /// True iff every link of the tunnel is currently up.
  bool alive(const Graph& g) const;
};

/// Ordered site pair index (the paper's k in K).
struct SitePair {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;

  bool operator==(const SitePair&) const = default;
};

struct SitePairHash {
  std::size_t operator()(const SitePair& p) const noexcept {
    return (static_cast<std::size_t>(p.src) << 32) ^ p.dst;
  }
};

/// Which candidate-generation backend build_tunnels runs.
enum class TunnelSelection : std::uint8_t {
  kKsp,         ///< Yen's k-shortest-paths per pair (the original default)
  kCentrality,  ///< group-betweenness middlepoints, <= 2 segments per tunnel
};

struct TunnelOptions {
  std::uint32_t tunnels_per_pair = 4;
  /// Yen's spur search explores up to this many candidates per pair; it
  /// also bounds how many inadmissible paths the search may generate
  /// while hunting for admissible ones under a hop budget (a pair left
  /// with none falls back to its hop-shortest path).
  std::uint32_t max_candidates = 32;
  /// Maximum SR hops (= links) a tunnel may have; 0 = unlimited. Only
  /// build_tunnels reads it: the set it returns carries the budget
  /// (TunnelSet::max_sr_hops) and enforces it, and repair_tunnels repairs
  /// under the set's own budget. Every planned tunnel is then encodable
  /// by dataplane::SrHeader (whose own hard cap is dataplane::kSrMaxHops
  /// = 32).
  std::uint32_t max_sr_hops = 0;
  /// Candidate selection backend (see TunnelSelection).
  TunnelSelection selection = TunnelSelection::kKsp;
  /// When set, build/repair bump the "topo.tunnels.*" counters on this
  /// registry (pairs_built / pairs_unreachable / pairs_budget_excluded /
  /// paths_budget_filtered). Must outlive the build call; not retained.
  obs::MetricsRegistry* metrics = nullptr;
};

/// What one build_tunnels / repair_tunnels call observed, kept on the
/// TunnelSet so "no tunnels for this pair" is attributable: partitioned
/// graph vs hop budget vs simply never requested.
struct TunnelBuildStats {
  std::size_t pairs_built = 0;        ///< pairs that got >= 1 tunnel
  std::size_t pairs_unreachable = 0;  ///< no path at all (partitioned graph)
  /// Reachable pairs where no path fit max_sr_hops — the hop budget, not
  /// the topology, excluded them from planning.
  std::size_t pairs_budget_excluded = 0;
  /// Candidate paths discarded because they exceeded max_sr_hops.
  std::size_t paths_budget_filtered = 0;
  /// kCentrality: size of the selected middlepoint group (0 for kKsp).
  std::size_t middlepoints = 0;
};

/// All tunnels of a topology, indexed by ordered site pair.
class TunnelSet {
 public:
  /// Tunnels for (src, dst), sorted by ascending weight; empty if the pair
  /// was never built or is disconnected.
  const std::vector<Tunnel>& tunnels(NodeId src, NodeId dst) const;

  /// Replaces the tunnels of (src, dst) and updates fingerprint().
  /// Throws std::invalid_argument, leaving the set unchanged, when a
  /// tunnel has more links than max_sr_hops().
  void set_tunnels(NodeId src, NodeId dst, std::vector<Tunnel> tunnels);

  /// The SR hop budget every tunnel of the set fits (0 = unlimited).
  /// build_tunnels records it; copies carry it. Not part of fingerprint().
  std::uint32_t max_sr_hops() const noexcept { return max_sr_hops_; }

  /// Fingerprint of the set's content: the XOR over every stored pair of
  /// a word-wise hash of (src, dst, tunnel count, and per tunnel its link
  /// count, link ids and bitwise weight). XOR makes it independent of
  /// insertion order, so equal sets fingerprint equal; set_tunnels is the
  /// only mutator, so the value is exact at all times. Latency is not
  /// hashed: no solve reads it. Copies carry the value with the content.
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  std::size_t num_pairs() const noexcept { return map_.size(); }
  std::size_t total_tunnels() const noexcept;

  /// Cumulative build/repair telemetry (see TunnelBuildStats).
  const TunnelBuildStats& stats() const noexcept { return stats_; }
  TunnelBuildStats& mutable_stats() noexcept { return stats_; }

  /// Iteration support for benches/tests.
  const std::unordered_map<SitePair, std::vector<Tunnel>, SitePairHash>& all()
      const noexcept {
    return map_;
  }

 private:
  friend TunnelSet build_tunnels(const Graph& g, const TunnelOptions& options);

  std::unordered_map<SitePair, std::vector<Tunnel>, SitePairHash> map_;
  std::vector<Tunnel> empty_;
  TunnelBuildStats stats_;
  std::uint64_t fingerprint_ = 0;
  std::uint32_t max_sr_hops_ = 0;
};

/// Builds tunnels for every ordered pair of distinct sites with the
/// configured backend and hop budget. Weights are the tunnel latency
/// divided by the pair's best built latency (so the best tunnel has
/// weight 1.0), matching "w_t determined by the network latency".
TunnelSet build_tunnels(const Graph& g, const TunnelOptions& options = {});

/// Rebuilds tunnels for pairs whose tunnel lists lost members to link
/// failures, keeping surviving tunnels' identities stable. Uses the
/// backend of `options` under the set's own max_sr_hops() (the options'
/// budget is not read), so repaired tunnels keep the plan/encap contract.
void repair_tunnels(const Graph& g, TunnelSet& tunnels,
                    const TunnelOptions& options = {});

}  // namespace megate::topo

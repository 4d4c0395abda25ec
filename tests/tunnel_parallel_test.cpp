// Byte-identity of the parallel tunnel builder.
//
// build_tunnels / repair_tunnels fan pairs out over a transient worker
// pool and run Yen's search on reusable flat workspaces. Their output
// must not change: this suite compares them against a test-local copy of
// the original serial Yen loop, built only on the public shortest_path +
// PathConstraints (hash-set bans, fresh buffers per search). Like the
// builder, the oracle gives a reachable pair that Yen leaves without an
// in-budget path its fewest-hops path when that fits the budget.
//
//   - TunnelParallel.KspBuild*: Cogentco*, Deltacom* and make_isp_like
//     seeds x tunnels/pair {2, 4} x max_sr_hops {0, 4, 5}: equal links,
//     bitwise-equal latency and weight. On the small graphs the oracle
//     covers every pair, so TunnelBuildStats and the topo.tunnels.*
//     counter delta (incl. dijkstra_calls = the oracle's spur and
//     fewest-hops searches plus one tree per source) must match too; on
//     Cogentco*/Deltacom* it covers a fixed sample of sources to keep the
//     suite fast.
//   - TunnelParallel.KspRepair*: repair after inject_link_failures seeds
//     equals the oracle rebuilding exactly the pairs that lost a tunnel.
//   - TunnelParallel.{Ties*, ZeroLatency*, UlpApart*, Partitioned*}: build
//     and repair on small graphs full of equal-latency paths, zero-latency
//     links, non-associative latency sums and unreachable nodes, where an
//     A* spur search that stopped early or never re-expanded a node would
//     return a different path than Dijkstra.
//   - TunnelParallel.Centrality*: repair equals a fresh build on the
//     degraded graph for every repaired pair, and builds reproduce digests
//     recorded from the serial implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "megate/obs/metrics.h"
#include "megate/topo/failures.h"
#include "megate/topo/generators.h"
#include "megate/topo/graph.h"
#include "megate/topo/shortest_path.h"
#include "megate/topo/tunnels.h"

namespace megate::topo {
namespace {

// --- Serial oracle ----------------------------------------------------------

bool oracle_path_less(const Path& a, const Path& b) {
  if (a.latency_ms != b.latency_ms) return a.latency_ms < b.latency_ms;
  if (a.links.size() != b.links.size()) {
    return a.links.size() < b.links.size();
  }
  return a.links < b.links;
}

bool oracle_fits(const Path& p, std::uint32_t max_hops) {
  return max_hops == 0 || p.links.size() <= max_hops;
}

/// The original serial Yen loop, verbatim in behaviour. `spur_calls`
/// counts its constrained (spur) searches.
std::vector<Path> oracle_yen(const Graph& g, NodeId src, NodeId dst,
                             const TunnelOptions& o, std::size_t* filtered,
                             std::uint64_t* spur_calls) {
  std::vector<Path> admissible;
  const std::uint32_t k = o.tunnels_per_pair;
  if (k == 0 || src == dst) return admissible;
  auto first = shortest_path(g, src, dst);
  if (!first) return admissible;
  std::vector<Path> generated;
  generated.push_back(std::move(*first));
  if (oracle_fits(generated.front(), o.max_sr_hops)) {
    admissible.push_back(generated.front());
  }
  std::set<Path, decltype(&oracle_path_less)> candidates(&oracle_path_less);
  const std::size_t gen_cap = std::max<std::size_t>(k, o.max_candidates);
  while (admissible.size() < k && generated.size() < gen_cap) {
    const Path& prev = generated.back();
    std::unordered_set<NodeId> banned_nodes;
    NodeId spur_node = src;
    Path root;
    for (std::size_t i = 0; i < prev.links.size(); ++i) {
      std::unordered_set<EdgeId> banned_links;
      for (const Path& p : generated) {
        if (p.links.size() <= i) continue;
        bool same_root = true;
        for (std::size_t j = 0; j < i; ++j) {
          if (p.links[j] != root.links[j]) {
            same_root = false;
            break;
          }
        }
        if (same_root) banned_links.insert(p.links[i]);
      }
      PathConstraints constraints;
      constraints.banned_links = &banned_links;
      constraints.banned_nodes = &banned_nodes;
      ++*spur_calls;
      if (auto spur = shortest_path(g, spur_node, dst, constraints)) {
        Path total = root;
        total.links.insert(total.links.end(), spur->links.begin(),
                           spur->links.end());
        total.latency_ms = root.latency_ms + spur->latency_ms;
        if (candidates.size() < o.max_candidates) {
          candidates.insert(std::move(total));
        }
      }
      banned_nodes.insert(spur_node);
      const Link& l = g.link(prev.links[i]);
      root.links.push_back(prev.links[i]);
      root.latency_ms += l.latency_ms;
      spur_node = l.dst;
    }
    bool advanced = false;
    while (!candidates.empty()) {
      Path best = *candidates.begin();
      candidates.erase(candidates.begin());
      const bool duplicate =
          std::any_of(generated.begin(), generated.end(),
                      [&](const Path& p) { return p.links == best.links; });
      if (!duplicate) {
        const bool fits = oracle_fits(best, o.max_sr_hops);
        generated.push_back(std::move(best));
        if (fits) admissible.push_back(generated.back());
        advanced = true;
        break;
      }
    }
    if (!advanced) break;
  }
  *filtered += generated.size() - admissible.size();
  return admissible;
}

std::vector<Tunnel> oracle_tunnels(const std::vector<Path>& paths) {
  std::vector<Tunnel> tunnels;
  if (paths.empty()) return tunnels;
  const double base = paths.front().latency_ms;
  for (const Path& p : paths) {
    Tunnel t;
    t.links = p.links;
    t.latency_ms = p.latency_ms;
    t.weight = base > 0.0 ? p.latency_ms / base
                          : static_cast<double>(p.hops());
    tunnels.push_back(std::move(t));
  }
  std::sort(tunnels.begin(), tunnels.end(),
            [](const Tunnel& a, const Tunnel& b) {
              if (a.weight != b.weight) return a.weight < b.weight;
              if (a.latency_ms != b.latency_ms) {
                return a.latency_ms < b.latency_ms;
              }
              if (a.links.size() != b.links.size()) {
                return a.links.size() < b.links.size();
              }
              return a.links < b.links;
            });
  return tunnels;
}

struct OracleBuild {
  std::map<std::pair<NodeId, NodeId>, std::vector<Tunnel>> tunnels;
  TunnelBuildStats stats;
  /// The builder's counted work for the same pairs: every spur and
  /// fewest-hops search, plus one full tree per source that serves all of
  /// that source's unconstrained searches (Yen's first path,
  /// reachability).
  std::uint64_t dijkstra_calls = 0;
};

/// `g` with every link's latency set to 1: its latency-shortest paths are
/// `g`'s fewest-hops paths under the same tie rules.
Graph unit_latency(const Graph& g) {
  Graph unit = g;
  for (EdgeId e = 0; e < unit.num_links(); ++e) unit.link(e).latency_ms = 1.0;
  return unit;
}

/// Serial per-pair build: Yen, then for a reachable pair Yen left without
/// an in-budget path, the fewest-hops path if it fits (one more search);
/// a pair still empty is budget-excluded or unreachable.
OracleBuild oracle_build(const Graph& g, const std::vector<SitePair>& pairs,
                         const TunnelOptions& o) {
  OracleBuild out;
  std::set<NodeId> sources;
  const Graph unit = unit_latency(g);
  for (const SitePair& p : pairs) {
    sources.insert(p.src);
    auto paths = oracle_yen(g, p.src, p.dst, o,
                            &out.stats.paths_budget_filtered,
                            &out.dijkstra_calls);
    if (paths.empty()) {
      const bool reachable =
          o.max_sr_hops > 0 && shortest_path(g, p.src, p.dst).has_value();
      if (reachable) {
        ++out.dijkstra_calls;
        Path fewest = *shortest_path(unit, p.src, p.dst);
        fewest.latency_ms = 0.0;
        for (EdgeId e : fewest.links) fewest.latency_ms += g.link(e).latency_ms;
        if (o.tunnels_per_pair > 0 && oracle_fits(fewest, o.max_sr_hops)) {
          paths.push_back(std::move(fewest));
        }
      }
      if (paths.empty()) {
        ++(reachable ? out.stats.pairs_budget_excluded
                     : out.stats.pairs_unreachable);
      }
    }
    if (!paths.empty()) ++out.stats.pairs_built;
    out.tunnels[{p.src, p.dst}] = oracle_tunnels(paths);
  }
  out.dijkstra_calls += sources.size();
  return out;
}

std::vector<SitePair> pairs_from(const Graph& g,
                                 const std::vector<NodeId>& sources) {
  std::vector<SitePair> pairs;
  for (NodeId s : sources) {
    for (NodeId d = 0; d < g.num_nodes(); ++d) {
      if (s != d) pairs.push_back(SitePair{s, d});
    }
  }
  return pairs;
}

std::vector<NodeId> all_sources(const Graph& g) {
  std::vector<NodeId> s(g.num_nodes());
  for (NodeId v = 0; v < s.size(); ++v) s[v] = v;
  return s;
}

// --- Comparison helpers -----------------------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_tunnels(const std::vector<Tunnel>& got,
                         const std::vector<Tunnel>& want,
                         const SitePair& pair, const std::string& where) {
  ASSERT_EQ(got.size(), want.size())
      << where << " pair " << pair.src << "->" << pair.dst;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].links, want[i].links)
        << where << " pair " << pair.src << "->" << pair.dst << " #" << i;
    EXPECT_EQ(bits(got[i].latency_ms), bits(want[i].latency_ms)) << where;
    EXPECT_EQ(bits(got[i].weight), bits(want[i].weight)) << where;
  }
}

void expect_same_stats(const TunnelBuildStats& got,
                       const TunnelBuildStats& want,
                       const std::string& where) {
  EXPECT_EQ(got.pairs_built, want.pairs_built) << where;
  EXPECT_EQ(got.pairs_unreachable, want.pairs_unreachable) << where;
  EXPECT_EQ(got.pairs_budget_excluded, want.pairs_budget_excluded) << where;
  EXPECT_EQ(got.paths_budget_filtered, want.paths_budget_filtered) << where;
  EXPECT_EQ(got.middlepoints, want.middlepoints) << where;
}

/// topo.tunnels.* counter values, to diff before/after one call.
struct CounterSnapshot {
  std::uint64_t built, unreachable, excluded, filtered, dijkstra;

  static CounterSnapshot of(obs::MetricsRegistry& reg) {
    return {reg.counter("topo.tunnels.pairs_built").value(),
            reg.counter("topo.tunnels.pairs_unreachable").value(),
            reg.counter("topo.tunnels.pairs_budget_excluded").value(),
            reg.counter("topo.tunnels.paths_budget_filtered").value(),
            reg.counter("topo.tunnels.dijkstra_calls").value()};
  }
};

void expect_counter_delta(const CounterSnapshot& before,
                          const CounterSnapshot& after,
                          const OracleBuild& want, const std::string& where) {
  EXPECT_EQ(after.built - before.built, want.stats.pairs_built) << where;
  EXPECT_EQ(after.unreachable - before.unreachable,
            want.stats.pairs_unreachable)
      << where;
  EXPECT_EQ(after.excluded - before.excluded,
            want.stats.pairs_budget_excluded)
      << where;
  EXPECT_EQ(after.filtered - before.filtered,
            want.stats.paths_budget_filtered)
      << where;
  EXPECT_EQ(after.dijkstra - before.dijkstra, want.dijkstra_calls) << where;
}

std::string label(const std::string& graph, const TunnelOptions& o) {
  return graph + " k=" + std::to_string(o.tunnels_per_pair) +
         " hops=" + std::to_string(o.max_sr_hops) +
         " cand=" + std::to_string(o.max_candidates);
}

/// Builds `g` with `o` and checks it against the oracle on the pairs of
/// `sources`; with every source covered, also stats + counter delta.
void check_build(const Graph& g, TunnelOptions o,
                 const std::vector<NodeId>& sources,
                 const std::string& name) {
  const std::string where = label(name, o);
  obs::MetricsRegistry reg;
  o.metrics = &reg;
  const CounterSnapshot before = CounterSnapshot::of(reg);
  const TunnelSet built = build_tunnels(g, o);
  const CounterSnapshot after = CounterSnapshot::of(reg);
  const OracleBuild want = oracle_build(g, pairs_from(g, sources), o);
  for (const auto& [key, tunnels] : want.tunnels) {
    const SitePair pair{key.first, key.second};
    expect_same_tunnels(built.tunnels(pair.src, pair.dst), tunnels, pair,
                        where);
  }
  if (sources.size() == g.num_nodes()) {
    EXPECT_EQ(built.num_pairs(), want.stats.pairs_built) << where;
    expect_same_stats(built.stats(), want.stats, where);
    expect_counter_delta(before, after, want, where);
  }
}

std::vector<TunnelOptions> option_grid(
    std::uint32_t budget_candidates,
    std::initializer_list<std::uint32_t> tunnels_per_pair = {2, 4}) {
  std::vector<TunnelOptions> grid;
  for (std::uint32_t k : tunnels_per_pair) {
    for (std::uint32_t hops : {0u, 4u, 5u}) {
      TunnelOptions o;
      o.tunnels_per_pair = k;
      o.max_sr_hops = hops;
      // Tight hop budgets on the big graphs make Yen hunt through the
      // whole candidate cap for most pairs; a smaller cap keeps the
      // suite fast while still exercising the hunt and its cut-off.
      if (hops > 0) o.max_candidates = budget_candidates;
      grid.push_back(o);
    }
  }
  return grid;
}

// --- TunnelParallel: ksp builds ---------------------------------------------

TEST(TunnelParallel, KspBuildMatchesOracleOnIspLikeSeeds) {
  for (std::uint64_t seed : {3u, 5u, 8u}) {
    GeneratorOptions gopt;
    gopt.seed = seed;
    const Graph g = make_isp_like(28, 44, gopt);
    for (const TunnelOptions& o : option_grid(32)) {
      check_build(g, o, all_sources(g), "isp" + std::to_string(seed));
    }
  }
}

TEST(TunnelParallel, KspBuildMatchesOracleOnDeltacom) {
  const Graph g = make_topology(TopologyKind::kDeltacom);
  for (const TunnelOptions& o : option_grid(4)) {
    check_build(g, o, {0, 37, 74, 112}, "Deltacom*");
  }
}

// Cogentco* is the slowest graph under a hop budget; one test per
// tunnels/pair value lets ctest run the halves side by side.
TEST(TunnelParallel, KspBuildMatchesOracleOnCogentcoTwoTunnels) {
  const Graph g = make_topology(TopologyKind::kCogentco);
  for (const TunnelOptions& o : option_grid(2, {2})) {
    check_build(g, o, {0, 98, 196}, "Cogentco*");
  }
}

TEST(TunnelParallel, KspBuildMatchesOracleOnCogentcoFourTunnels) {
  const Graph g = make_topology(TopologyKind::kCogentco);
  for (const TunnelOptions& o : option_grid(2, {4})) {
    check_build(g, o, {0, 98, 196}, "Cogentco*");
  }
}

TEST(TunnelParallel, KspBuildMatchesOracleOnDisconnectedGraph) {
  // Two islands plus a line: unreachable and budget-excluded pairs both
  // occur, so the emptiness attribution (and its extra search) is pinned.
  Graph g;
  for (const char* n : {"a", "b", "c", "d", "e", "f", "h"}) g.add_node(n);
  g.add_duplex_link(0, 1, 10, 1.0);
  g.add_duplex_link(1, 2, 10, 1.0);
  g.add_duplex_link(2, 3, 10, 1.0);
  g.add_duplex_link(0, 2, 10, 3.0);
  g.add_duplex_link(4, 5, 10, 1.0);
  g.add_duplex_link(5, 6, 10, 1.0);
  for (std::uint32_t hops : {0u, 1u, 2u}) {
    TunnelOptions o;
    o.max_sr_hops = hops;
    check_build(g, o, all_sources(g), "islands");
  }
}

// --- TunnelParallel: ksp repairs --------------------------------------------

/// Pairs with at least one dead tunnel, in (src, dst) order.
std::vector<SitePair> dead_pairs(const Graph& g, const TunnelSet& ts) {
  std::vector<SitePair> out;
  for (const auto& [pair, tunnels] : ts.all()) {
    if (std::any_of(tunnels.begin(), tunnels.end(),
                    [&](const Tunnel& t) { return !t.alive(g); })) {
      out.push_back(pair);
    }
  }
  std::sort(out.begin(), out.end(), [](const SitePair& a, const SitePair& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  return out;
}

/// For each of ten seeds: fails links with inject_link_failures, repairs
/// a copy of `base` and checks the result pair by pair: repaired pairs
/// equal the oracle on the degraded graph, every other pair is untouched;
/// stats and counters add up.
void check_repairs(Graph& g, const TunnelSet& base, TunnelOptions o,
                   const std::string& name) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto events = inject_link_failures(g, 1 + seed % 3, seed);
    const std::string where =
        label(name, o) + " failure seed " + std::to_string(seed);
    const std::vector<SitePair> fix = dead_pairs(g, base);
    const OracleBuild want = oracle_build(g, fix, o);

    obs::MetricsRegistry reg;
    o.metrics = &reg;
    TunnelSet repaired = base;
    const CounterSnapshot before = CounterSnapshot::of(reg);
    repair_tunnels(g, repaired, o);
    const CounterSnapshot after = CounterSnapshot::of(reg);
    o.metrics = nullptr;

    for (const auto& [pair, tunnels] : base.all()) {
      const auto it = want.tunnels.find({pair.src, pair.dst});
      expect_same_tunnels(repaired.tunnels(pair.src, pair.dst),
                          it == want.tunnels.end() ? tunnels : it->second,
                          pair, where);
    }
    EXPECT_EQ(repaired.num_pairs(), base.num_pairs()) << where;
    TunnelBuildStats total = base.stats();
    total.pairs_built += want.stats.pairs_built;
    total.pairs_unreachable += want.stats.pairs_unreachable;
    total.pairs_budget_excluded += want.stats.pairs_budget_excluded;
    total.paths_budget_filtered += want.stats.paths_budget_filtered;
    expect_same_stats(repaired.stats(), total, where);
    expect_counter_delta(before, after, want, where);
    restore_failures(g, events);
  }
}

TEST(TunnelParallel, KspRepairMatchesOracleAfterFailures) {
  Graph g = make_topology(TopologyKind::kDeltacom);
  for (std::uint32_t hops : {0u, 5u}) {
    TunnelOptions o;
    o.tunnels_per_pair = 2;
    o.max_sr_hops = hops;
    o.max_candidates = 4;
    const TunnelSet base = build_tunnels(g, o);
    check_repairs(g, base, o, "Deltacom*");
  }
}

TEST(TunnelParallel, KspRepairMatchesOracleOnIspLike) {
  GeneratorOptions gopt;
  gopt.seed = 21;
  Graph g = make_isp_like(30, 48, gopt);
  TunnelOptions o;  // defaults: 4 tunnels/pair, unlimited hops
  const TunnelSet base = build_tunnels(g, o);
  check_repairs(g, base, o, "isp21");
}

// --- TunnelParallel: ties and rounding --------------------------------------
//
// Spur searches are A* on exact reverse-latency potentials. These graphs
// stress what could make such a search differ from Dijkstra: many equal-
// latency paths (the canonical parent of a path node may come from a node
// popped after dst), zero-latency links, latencies whose sums round
// differently in forward and reverse order, and nodes that cannot reach
// dst at all.

using LatencyOf = double (*)(std::size_t link_index);

/// rows x cols grid of duplex links; the i-th duplex link gets lat(i).
Graph grid(std::uint32_t rows, std::uint32_t cols, LatencyOf lat) {
  Graph g;
  for (std::uint32_t v = 0; v < rows * cols; ++v) {
    g.add_node("g" + std::to_string(v));
  }
  std::size_t i = 0;
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      const NodeId v = r * cols + c;
      if (c + 1 < cols) g.add_duplex_link(v, v + 1, 10, lat(i++));
      if (r + 1 < rows) g.add_duplex_link(v, v + cols, 10, lat(i++));
    }
  }
  return g;
}

double unit_latency(std::size_t) { return 1.0; }

/// Every other grid link is free: long zero-latency chains and cycles.
double zero_or_unit_latency(std::size_t i) { return i % 2 == 0 ? 0.0 : 1.0; }

/// Latencies whose sums are not associative in floating point (0.1 + 0.2
/// != 0.3), some one ulp apart, so reverse-summed potentials miss forward
/// labels by an ulp either way.
double ulp_latency(std::size_t i) {
  const double table[] = {0.1, 0.2, 0.3, std::nextafter(0.3, 1.0),
                          0.7, std::nextafter(0.1, 0.0)};
  return table[(i * 7) % 6];
}

/// Builds and repairs `g` under tunnels/pair {2, 4} x max_sr_hops
/// {0, 3, 4} against the oracle.
void check_tie_graph(Graph& g, const std::string& name) {
  for (std::uint32_t k : {2u, 4u}) {
    for (std::uint32_t hops : {0u, 3u, 4u}) {
      TunnelOptions o;
      o.tunnels_per_pair = k;
      o.max_sr_hops = hops;
      check_build(g, o, all_sources(g), name);
      const TunnelSet base = build_tunnels(g, o);
      check_repairs(g, base, o, name);
    }
  }
}

TEST(TunnelParallel, TiesOnUnitGridAndRingMatchOracle) {
  Graph g = grid(4, 5, unit_latency);
  check_tie_graph(g, "unit grid");
  Graph ring;
  for (std::uint32_t v = 0; v < 12; ++v) {
    ring.add_node("r" + std::to_string(v));
  }
  for (std::uint32_t v = 0; v < 12; ++v) {
    ring.add_duplex_link(v, (v + 1) % 12, 10, 1.0);
  }
  ring.add_duplex_link(0, 6, 10, 6.0);  // ties both half rings
  ring.add_duplex_link(3, 9, 10, 2.0);
  check_tie_graph(ring, "ring");
}

TEST(TunnelParallel, ZeroLatencyLinksMatchOracle) {
  Graph g = grid(4, 4, zero_or_unit_latency);
  check_tie_graph(g, "zero-latency grid");
}

TEST(TunnelParallel, UlpApartLatenciesMatchOracle) {
  Graph g = grid(4, 5, ulp_latency);
  check_tie_graph(g, "ulp grid");
}

TEST(TunnelParallel, PartitionedGraphMatchesOracle) {
  // Two islands (a 3x3 grid and a ring) joined by one one-way link: the
  // ring is reachable from the grid but not back, so spur searches meet
  // nodes with an infinite potential. inject_link_failures fails links
  // inside either island but never the bridge.
  Graph g = grid(3, 3, ulp_latency);
  for (std::uint32_t v = 0; v < 5; ++v) g.add_node("i" + std::to_string(v));
  for (std::uint32_t v = 0; v < 5; ++v) {
    g.add_duplex_link(9 + v, 9 + (v + 1) % 5, 10, unit_latency(v));
  }
  g.add_link(4, 9, 10, 0.5);
  check_tie_graph(g, "islands");
}

// --- TunnelParallel: centrality ---------------------------------------------

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdull;
}

/// Digest over every pair's tunnels (links,
/// latency bits, weight bits, walked in (src, dst) order) and the stats.
std::uint64_t digest(const Graph& g, const TunnelSet& ts) {
  std::uint64_t h = 1;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId d = 0; d < g.num_nodes(); ++d) {
      const auto& tunnels = ts.tunnels(s, d);
      h = mix(h, tunnels.size());
      for (const Tunnel& t : tunnels) {
        for (EdgeId e : t.links) h = mix(h, e);
        h = mix(h, bits(t.latency_ms));
        h = mix(h, bits(t.weight));
      }
    }
  }
  const TunnelBuildStats& st = ts.stats();
  for (std::size_t v :
       {st.pairs_built, st.pairs_unreachable, st.pairs_budget_excluded,
        st.paths_budget_filtered, st.middlepoints}) {
    h = mix(h, v);
  }
  return h;
}

TEST(TunnelParallel, CentralityBuildsReproduceSerialDigests) {
  // Recorded from the serial centrality builder (one shared dijkstra_tree
  // per source, hash-set loop check in compose_segments).
  struct Case {
    TopologyKind kind;
    std::uint32_t k;
    std::uint32_t hops;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {TopologyKind::kCogentco, 2, 0, 0xaa0cfa3ec38e71c8ull},
      {TopologyKind::kCogentco, 4, 5, 0x0b71af4865d6b5e5ull},
      {TopologyKind::kDeltacom, 4, 0, 0x0e335aea5072769full},
      {TopologyKind::kDeltacom, 2, 4, 0x39d9cb46c0ee6ee9ull},
  };
  for (const Case& c : cases) {
    const Graph g = make_topology(c.kind);
    TunnelOptions o;
    o.selection = TunnelSelection::kCentrality;
    o.tunnels_per_pair = c.k;
    o.max_sr_hops = c.hops;
    EXPECT_EQ(digest(g, build_tunnels(g, o)), c.digest)
        << label(to_string(c.kind), o);
  }
}

TEST(TunnelParallel, CentralityRepairEqualsFreshBuildOnDegradedGraph) {
  Graph g = make_topology(TopologyKind::kDeltacom);
  TunnelOptions o;
  o.selection = TunnelSelection::kCentrality;
  o.max_sr_hops = 5;
  const TunnelSet base = build_tunnels(g, o);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::string where = "failure seed " + std::to_string(seed);
    const auto events = inject_link_failures(g, 1 + seed % 3, seed);
    const std::vector<SitePair> fix = dead_pairs(g, base);
    TunnelSet repaired = base;
    repair_tunnels(g, repaired, o);
    const TunnelSet fresh = build_tunnels(g, o);
    std::set<std::pair<NodeId, NodeId>> fixed;
    for (const SitePair& p : fix) fixed.insert({p.src, p.dst});
    for (const auto& [pair, tunnels] : base.all()) {
      const bool was_fixed = fixed.contains({pair.src, pair.dst});
      expect_same_tunnels(repaired.tunnels(pair.src, pair.dst),
                          was_fixed ? fresh.tunnels(pair.src, pair.dst)
                                    : tunnels,
                          pair, where);
    }
    restore_failures(g, events);
  }
}

}  // namespace
}  // namespace megate::topo

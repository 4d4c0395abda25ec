// SR hop budget as a planning constraint (the plan/encap contract).
//
// Four suites:
//   - TunnelBudgetProperty: every tunnel a build produces under a budget
//     round-trips through dataplane::SrHeader::serialize, fuzzed across
//     seeds x budgets {3..8} x both selection backends. This is the
//     end-to-end claim behind max_sr_hops: planning never emits a route
//     the dataplane refuses to encapsulate. The set keeps the budget it
//     was built under: set_tunnels refuses an over-budget tunnel, and
//     repair runs under the set's budget whatever its options say. Under
//     either backend a pair gets a tunnel exactly when its fewest-hops
//     path fits the budget, on generated graphs, Cogentco* and TWAN, after
//     builds and repairs.
//   - KspDeterminism: Yen's output is a total order — equal-latency
//     parallel paths tie-break on the link-id sequence, so rebuilds are
//     byte-stable.
//   - CentralityBackend: middlepoint selection is deterministic, its
//     tunnels are loopless/contiguous/within budget, and it covers
//     exactly the pairs the ksp backend covers under a budget.
//   - TunnelStats: "no tunnels for this pair" is attributable —
//     unreachable vs budget-excluded — on the TunnelSet and through the
//     metrics registry.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "megate/dataplane/sr_header.h"
#include "megate/obs/metrics.h"
#include "megate/topo/generators.h"
#include "megate/topo/graph.h"
#include "megate/topo/tunnels.h"

namespace megate::topo {
namespace {

/// The controller's tunnel -> SR hop list translation (one u32 site id
/// per traversed link, ctrl/controller.cpp): what actually reaches
/// SrHeader::serialize for a planned route.
std::vector<std::uint32_t> hops_of(const Graph& g, const Tunnel& t) {
  std::vector<std::uint32_t> hops;
  hops.reserve(t.links.size());
  for (EdgeId e : t.links) hops.push_back(g.link(e).dst);
  return hops;
}

void expect_valid_tunnel(const Graph& g, NodeId src, NodeId dst,
                         const Tunnel& t, std::uint32_t budget) {
  ASSERT_FALSE(t.links.empty());
  if (budget > 0) {
    EXPECT_LE(t.links.size(), budget) << "tunnel exceeds max_sr_hops";
  }
  // Contiguous src -> dst walk with no repeated node.
  EXPECT_EQ(g.link(t.links.front()).src, src);
  EXPECT_EQ(g.link(t.links.back()).dst, dst);
  std::set<NodeId> nodes{g.link(t.links.front()).src};
  for (std::size_t i = 0; i < t.links.size(); ++i) {
    if (i > 0) {
      EXPECT_EQ(g.link(t.links[i]).src, g.link(t.links[i - 1]).dst);
    }
    EXPECT_TRUE(nodes.insert(g.link(t.links[i]).dst).second)
        << "loop in tunnel";
  }
}

/// The link most tunnels of `ts` cross: failing it gives repair real work.
EdgeId hottest_link(const Graph& g, const TunnelSet& ts) {
  std::vector<std::size_t> uses(g.num_links(), 0);
  for (const auto& [pair, tunnels] : ts.all()) {
    for (const Tunnel& t : tunnels) {
      for (EdgeId e : t.links) ++uses[e];
    }
  }
  return static_cast<EdgeId>(std::max_element(uses.begin(), uses.end()) -
                             uses.begin());
}

/// Fewest links from `src` to every node over up links (-1: unreachable).
std::vector<int> bfs_hops(const Graph& g, NodeId src) {
  std::vector<int> hops(g.num_nodes(), -1);
  std::vector<NodeId> frontier{src};
  hops[src] = 0;
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const NodeId v = frontier[i];
    for (EdgeId e : g.out_edges(v)) {
      const Link& l = g.link(e);
      if (!l.up || hops[l.dst] >= 0) continue;
      hops[l.dst] = hops[v] + 1;
      frontier.push_back(l.dst);
    }
  }
  return hops;
}

/// Checks `ts` against `g`: a pair has a tunnel exactly when its
/// fewest-hops path fits `budget`. Returns the reachable pairs whose
/// fewest hops exceed the budget.
std::size_t expect_budget_coverage(const Graph& g, const TunnelSet& ts,
                                   std::uint32_t budget,
                                   const std::string& where) {
  std::size_t over = 0;
  std::size_t wrong = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    const std::vector<int> hops = bfs_hops(g, s);
    for (NodeId d = 0; d < g.num_nodes(); ++d) {
      if (d == s) continue;
      const bool fits =
          hops[d] >= 0 && static_cast<std::uint32_t>(hops[d]) <= budget;
      if (hops[d] >= 0 && !fits) ++over;
      if (ts.tunnels(s, d).empty() == fits) {
        if (++wrong <= 3) {
          ADD_FAILURE() << where << ": pair (" << s << "," << d
                        << ") has fewest hops " << hops[d] << " but "
                        << ts.tunnels(s, d).size() << " tunnels";
        }
      }
    }
  }
  EXPECT_EQ(wrong, 0u) << where;
  return over;
}

// --- TunnelBudgetProperty ---------------------------------------------------

TEST(TunnelBudgetProperty, PairHasATunnelExactlyWhenItsFewestHopsFit) {
  struct Case {
    std::string name;
    Graph g;
    std::uint32_t max_candidates;
  };
  std::vector<Case> cases;
  for (const std::uint64_t seed : {11u, 37u, 53u}) {
    GeneratorOptions gopt;
    gopt.seed = seed;
    cases.push_back({"isp" + std::to_string(seed),
                     make_isp_like(26, 44, gopt), 32});
  }
  cases.push_back({"twan", make_topology(TopologyKind::kTwan), 32});
  // Cogentco*'s budget-bound pairs run Yen's hunt to its cap; a cap of 2
  // keeps the suite fast and leaves more pairs to the fewest-hops path.
  cases.push_back({"cogentco", make_topology(TopologyKind::kCogentco), 2});
  for (const auto& [name, g, max_candidates] : cases) {
    for (const std::uint32_t budget : {3u, 4u, 5u}) {
      std::vector<TunnelSet> sets;  // kKsp, then kCentrality
      for (const auto selection :
           {TunnelSelection::kKsp, TunnelSelection::kCentrality}) {
        TunnelOptions opt;
        opt.tunnels_per_pair = 3;
        opt.max_candidates = max_candidates;
        opt.max_sr_hops = budget;
        opt.selection = selection;
        const std::string where =
            name + (selection == TunnelSelection::kKsp ? " ksp" : " cen") +
            " budget " + std::to_string(budget);
        sets.push_back(build_tunnels(g, opt));
        const TunnelSet& ts = sets.back();
        const std::size_t over = expect_budget_coverage(g, ts, budget, where);
        EXPECT_EQ(ts.stats().pairs_budget_excluded, over) << where;
      }
      // So the two backends cover the same pairs, and only kCentrality
      // selects middlepoints.
      const std::string where = name + " budget " + std::to_string(budget);
      EXPECT_EQ(sets[0].stats().pairs_budget_excluded,
                sets[1].stats().pairs_budget_excluded)
          << where;
      EXPECT_EQ(sets[0].stats().middlepoints, 0u) << where;
      EXPECT_GT(sets[1].stats().middlepoints, 0u) << where;
    }
  }
}

TEST(TunnelBudgetProperty, RepairKeepsTheCoverageRule) {
  for (const std::uint64_t seed : {11u, 37u, 53u}) {
    GeneratorOptions gopt;
    gopt.seed = seed;
    for (const auto selection :
         {TunnelSelection::kKsp, TunnelSelection::kCentrality}) {
      Graph g = make_isp_like(26, 44, gopt);
      TunnelOptions opt;
      opt.tunnels_per_pair = 3;
      opt.max_sr_hops = 3;
      opt.selection = selection;
      TunnelSet ts = build_tunnels(g, opt);
      // Losing a link only lengthens fewest-hops paths, so the pairs
      // repair skips (tunnels alive, or none before) keep the rule too.
      g.set_link_state(hottest_link(g, ts), false);
      repair_tunnels(g, ts, opt);
      expect_budget_coverage(g, ts, opt.max_sr_hops,
                             "isp" + std::to_string(seed) + " repaired");
    }
  }
}

TEST(TunnelBudgetProperty, EveryBuiltTunnelSerializesUnderBudget) {
  for (const std::uint64_t seed : {7u, 19u, 101u}) {
    GeneratorOptions gopt;
    gopt.seed = seed;
    const Graph g = make_isp_like(24, 40, gopt);
    for (std::uint32_t budget = 3; budget <= 8; ++budget) {
      for (const auto selection :
           {TunnelSelection::kKsp, TunnelSelection::kCentrality}) {
        TunnelOptions opt;
        opt.max_sr_hops = budget;
        opt.selection = selection;
        const TunnelSet ts = build_tunnels(g, opt);
        ASSERT_GT(ts.total_tunnels(), 0u);
        for (const auto& [pair, tunnels] : ts.all()) {
          for (const Tunnel& t : tunnels) {
            expect_valid_tunnel(g, pair.src, pair.dst, t, budget);
            dataplane::SrHeader hdr;
            hdr.hops = hops_of(g, t);
            dataplane::Buffer wire;
            ASSERT_TRUE(hdr.serialize(wire))
                << "planned tunnel refused by the dataplane (seed=" << seed
                << " budget=" << budget << ")";
            const auto parsed = dataplane::SrHeader::parse(
                dataplane::ConstBytes(wire.data(), wire.size()));
            ASSERT_TRUE(parsed.has_value());
            EXPECT_EQ(parsed->hops, hdr.hops);
          }
        }
      }
    }
  }
}

TEST(TunnelBudgetProperty, UnlimitedBudgetMatchesLegacyBuild) {
  GeneratorOptions gopt;
  gopt.seed = 13;
  const Graph g = make_isp_like(16, 26, gopt);
  const TunnelSet legacy = build_tunnels(g);
  TunnelOptions opt;  // max_sr_hops = 0 (unlimited), kKsp
  const TunnelSet budgeted = build_tunnels(g, opt);
  ASSERT_EQ(legacy.num_pairs(), budgeted.num_pairs());
  for (const auto& [pair, tunnels] : legacy.all()) {
    const auto& other = budgeted.tunnels(pair.src, pair.dst);
    ASSERT_EQ(tunnels.size(), other.size());
    for (std::size_t i = 0; i < tunnels.size(); ++i) {
      EXPECT_EQ(tunnels[i].links, other[i].links);
    }
  }
}

TEST(TunnelBudgetProperty, RepairKeepsTheBudget) {
  GeneratorOptions gopt;
  gopt.seed = 29;
  Graph g = make_isp_like(20, 34, gopt);
  TunnelOptions opt;
  opt.max_sr_hops = 4;
  TunnelSet ts = build_tunnels(g, opt);
  // Fail the most-used link so repair has real work to do.
  g.set_link_state(hottest_link(g, ts), false);
  repair_tunnels(g, ts, opt);
  for (const auto& [pair, tunnels] : ts.all()) {
    for (const Tunnel& t : tunnels) {
      EXPECT_TRUE(t.alive(g));
      EXPECT_LE(t.links.size(), 4u) << "repair broke the hop budget";
    }
  }
}

TEST(TunnelBudgetProperty, SetTunnelsRefusesAnOverBudgetTunnel) {
  GeneratorOptions gopt;
  gopt.seed = 31;
  const Graph g = make_isp_like(12, 20, gopt);
  TunnelOptions opt;
  opt.max_sr_hops = 4;
  TunnelSet ts = build_tunnels(g, opt);
  EXPECT_EQ(ts.max_sr_hops(), 4u);
  EXPECT_EQ(TunnelSet(ts).max_sr_hops(), 4u) << "copies carry the budget";
  EXPECT_EQ(build_tunnels(g).max_sr_hops(), 0u);

  const std::uint64_t fingerprint = ts.fingerprint();
  const std::size_t pairs = ts.num_pairs();
  const std::size_t total = ts.total_tunnels();
  const std::vector<Tunnel> before = ts.tunnels(0, 1);
  ASSERT_FALSE(before.empty());
  Tunnel five;
  five.links = {0, 1, 2, 3, 4};
  five.weight = 1.0;
  // The over-budget tunnel comes last, so a check that stored the first
  // ones before throwing would show in the pair's list.
  std::vector<Tunnel> replacement = before;
  replacement.push_back(five);
  EXPECT_THROW(ts.set_tunnels(0, 1, replacement), std::invalid_argument);
  EXPECT_THROW(ts.set_tunnels(1, 0, {five}), std::invalid_argument);
  EXPECT_EQ(ts.fingerprint(), fingerprint);
  EXPECT_EQ(ts.num_pairs(), pairs);
  EXPECT_EQ(ts.total_tunnels(), total);
  const auto& after = ts.tunnels(0, 1);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].links, before[i].links);
  }

  // At the budget is fine.
  Tunnel four = five;
  four.links.pop_back();
  ts.set_tunnels(0, 1, {four});
  EXPECT_NE(ts.fingerprint(), fingerprint);
}

TEST(TunnelBudgetProperty, RepairRunsUnderTheSetsBudget) {
  for (const auto selection :
       {TunnelSelection::kKsp, TunnelSelection::kCentrality}) {
    GeneratorOptions gopt;
    gopt.seed = 29;
    Graph g = make_isp_like(20, 34, gopt);
    TunnelOptions opt;
    opt.max_sr_hops = 4;
    opt.selection = selection;
    TunnelSet ts = build_tunnels(g, opt);
    TunnelSet same = ts;
    g.set_link_state(hottest_link(g, ts), false);
    const std::size_t built_before = ts.stats().pairs_built;
    // Default options but for the backend: no budget of their own.
    TunnelOptions repair;
    repair.selection = selection;
    repair_tunnels(g, ts, repair);
    EXPECT_GT(ts.stats().pairs_built, built_before) << "nothing repaired";
    for (const auto& [pair, tunnels] : ts.all()) {
      for (const Tunnel& t : tunnels) {
        EXPECT_TRUE(t.alive(g));
        EXPECT_LE(t.links.size(), 4u) << "repair broke the hop budget";
      }
    }
    // The options' budget is not read: the budgeted repair is identical.
    repair_tunnels(g, same, opt);
    EXPECT_EQ(ts.fingerprint(), same.fingerprint());
  }
}

// --- KspDeterminism ---------------------------------------------------------

/// Two nodes joined by three parallel equal-latency duplex links, plus an
/// equal-latency two-hop detour: every path src->dst ties on latency, so
/// only the deterministic tie-break orders them.
Graph parallel_paths_graph() {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId m = g.add_node("m");
  g.add_duplex_link(a, b, 100, 2.0);
  g.add_duplex_link(a, b, 100, 2.0);
  g.add_duplex_link(a, b, 100, 2.0);
  g.add_duplex_link(a, m, 100, 1.0);
  g.add_duplex_link(m, b, 100, 1.0);
  return g;
}

TEST(KspDeterminism, EqualLatencyPathsOrderByHopsThenLinkIds) {
  const Graph g = parallel_paths_graph();
  const TunnelSet ts = build_tunnels(g, {.tunnels_per_pair = 8});
  const auto& paths = ts.tunnels(0, 1);
  ASSERT_EQ(paths.size(), 4u);
  for (const Tunnel& p : paths) EXPECT_DOUBLE_EQ(p.latency_ms, 2.0);
  // Ties break on hop count first (the three directs before the detour),
  // then on the link-id sequence (ascending).
  EXPECT_EQ(paths[0].hops(), 1u);
  EXPECT_EQ(paths[1].hops(), 1u);
  EXPECT_EQ(paths[2].hops(), 1u);
  EXPECT_EQ(paths[3].hops(), 2u);
  EXPECT_LT(paths[0].links, paths[1].links);
  EXPECT_LT(paths[1].links, paths[2].links);
}

TEST(KspDeterminism, RepeatedBuildsAreByteStable) {
  GeneratorOptions gopt;
  gopt.seed = 17;
  const Graph g = make_isp_like(18, 30, gopt);
  for (const auto selection :
       {TunnelSelection::kKsp, TunnelSelection::kCentrality}) {
    TunnelOptions opt;
    opt.selection = selection;
    opt.max_sr_hops = 5;
    const TunnelSet first = build_tunnels(g, opt);
    const TunnelSet second = build_tunnels(g, opt);
    ASSERT_EQ(first.num_pairs(), second.num_pairs());
    for (const auto& [pair, tunnels] : first.all()) {
      const auto& other = second.tunnels(pair.src, pair.dst);
      ASSERT_EQ(tunnels.size(), other.size());
      for (std::size_t i = 0; i < tunnels.size(); ++i) {
        EXPECT_EQ(tunnels[i].links, other[i].links) << "nondeterministic";
      }
    }
  }
}

// --- CentralityBackend ------------------------------------------------------

TEST(CentralityBackend, MiddlepointSelectionIsDeterministicAndBounded) {
  GeneratorOptions gopt;
  gopt.seed = 23;
  const Graph g = make_isp_like(30, 52, gopt);
  TunnelOptions opt;
  opt.selection = TunnelSelection::kCentrality;
  const TunnelSet a = build_tunnels(g, opt);
  const TunnelSet b = build_tunnels(g, opt);
  // The group has the auto size: ~sqrt(sites), at least 4, here
  // ceil(sqrt(30)) = 6. Greedy selection stops early only once every
  // shortest path is covered, which a 30-site ISP graph never reaches.
  EXPECT_EQ(a.stats().middlepoints, 6u);
  // A repeat build selects the same group and so the same tunnels.
  EXPECT_EQ(b.stats().middlepoints, a.stats().middlepoints);
  EXPECT_EQ(b.fingerprint(), a.fingerprint());
  EXPECT_EQ(b.total_tunnels(), a.total_tunnels());
}

TEST(CentralityBackend, PairCoverageMatchesKspUnderBudget) {
  for (const std::uint64_t seed : {11u, 37u}) {
    GeneratorOptions gopt;
    gopt.seed = seed;
    const Graph g = make_isp_like(26, 44, gopt);
    for (const std::uint32_t budget : {3u, 5u}) {
      TunnelOptions ksp;
      ksp.max_sr_hops = budget;
      TunnelOptions cen = ksp;
      cen.selection = TunnelSelection::kCentrality;
      const TunnelSet kt = build_tunnels(g, ksp);
      const TunnelSet ct = build_tunnels(g, cen);
      for (NodeId s = 0; s < g.num_nodes(); ++s) {
        for (NodeId d = 0; d < g.num_nodes(); ++d) {
          EXPECT_EQ(kt.tunnels(s, d).empty(), ct.tunnels(s, d).empty())
              << "pair (" << s << "," << d << ") covered by one backend "
              << "only at budget " << budget << " (seed=" << seed << ")";
        }
      }
      EXPECT_EQ(kt.stats().pairs_budget_excluded,
                ct.stats().pairs_budget_excluded);
      EXPECT_GT(ct.stats().middlepoints, 0u);
      EXPECT_EQ(kt.stats().middlepoints, 0u);
    }
  }
}

TEST(CentralityBackend, TunnelsAreSortedDistinctAndCapped) {
  GeneratorOptions gopt;
  gopt.seed = 41;
  const Graph g = make_isp_like(22, 38, gopt);
  TunnelOptions opt;
  opt.selection = TunnelSelection::kCentrality;
  opt.tunnels_per_pair = 3;
  const TunnelSet ts = build_tunnels(g, opt);
  for (const auto& [pair, tunnels] : ts.all()) {
    EXPECT_LE(tunnels.size(), 3u);
    std::set<std::vector<EdgeId>> seen;
    for (std::size_t i = 0; i < tunnels.size(); ++i) {
      expect_valid_tunnel(g, pair.src, pair.dst, tunnels[i], 0);
      EXPECT_TRUE(seen.insert(tunnels[i].links).second) << "duplicate";
      if (i > 0) {
        EXPECT_GE(tunnels[i].weight, tunnels[i - 1].weight);
      }
    }
    if (!tunnels.empty()) {
      EXPECT_DOUBLE_EQ(tunnels.front().weight, 1.0);
    }
  }
}

// --- TunnelStats ------------------------------------------------------------

TEST(TunnelStats, UnreachablePairsAreCountedNotSilent) {
  Graph g;  // two islands: a-b and c-d
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId c = g.add_node("c");
  const NodeId d = g.add_node("d");
  g.add_duplex_link(a, b, 10, 1.0);
  g.add_duplex_link(c, d, 10, 1.0);
  obs::MetricsRegistry reg;
  TunnelOptions opt;
  opt.metrics = &reg;
  const TunnelSet ts = build_tunnels(g, opt);
  EXPECT_EQ(ts.stats().pairs_built, 4u);        // a<->b, c<->d
  EXPECT_EQ(ts.stats().pairs_unreachable, 8u);  // every cross-island pair
  EXPECT_EQ(ts.stats().pairs_budget_excluded, 0u);
  EXPECT_EQ(reg.counter("topo.tunnels.pairs_unreachable").value(), 8u);
  EXPECT_EQ(reg.counter("topo.tunnels.pairs_built").value(), 4u);
}

TEST(TunnelStats, BudgetExclusionIsDistinctFromUnreachable) {
  Graph g;  // line a-b-c-d: (a,d) needs 3 links
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId c = g.add_node("c");
  const NodeId d = g.add_node("d");
  g.add_duplex_link(a, b, 10, 1.0);
  g.add_duplex_link(b, c, 10, 1.0);
  g.add_duplex_link(c, d, 10, 1.0);
  for (const auto selection :
       {TunnelSelection::kKsp, TunnelSelection::kCentrality}) {
    obs::MetricsRegistry reg;
    TunnelOptions opt;
    opt.max_sr_hops = 2;
    opt.selection = selection;
    opt.metrics = &reg;
    const TunnelSet ts = build_tunnels(g, opt);
    // (a,d) and (d,a) are reachable but cannot fit two links.
    EXPECT_EQ(ts.stats().pairs_budget_excluded, 2u);
    EXPECT_EQ(ts.stats().pairs_unreachable, 0u);
    EXPECT_TRUE(ts.tunnels(a, d).empty());
    EXPECT_FALSE(ts.tunnels(a, c).empty());
    EXPECT_EQ(reg.counter("topo.tunnels.pairs_budget_excluded").value(), 2u);
  }
}

TEST(TunnelStats, FilteredPathCounterTicksWhenBudgetBinds) {
  GeneratorOptions gopt;
  gopt.seed = 47;
  const Graph g = make_isp_like(24, 40, gopt);
  TunnelOptions opt;
  opt.max_sr_hops = 3;
  const TunnelSet tight = build_tunnels(g, opt);
  opt.max_sr_hops = 0;
  const TunnelSet loose = build_tunnels(g, opt);
  EXPECT_GT(tight.stats().paths_budget_filtered, 0u);
  EXPECT_EQ(loose.stats().paths_budget_filtered, 0u);
  EXPECT_LE(tight.total_tunnels(), loose.total_tunnels());
}

}  // namespace
}  // namespace megate::topo

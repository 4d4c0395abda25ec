// Tests for megate::topo — graph invariants, Dijkstra, Yen's k-shortest
// paths, the topology generators (Table 2 scales), failure injection and
// the text format round-trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "megate/topo/failures.h"
#include "megate/topo/format.h"
#include "megate/topo/generators.h"
#include "megate/topo/graph.h"
#include "megate/topo/shortest_path.h"
#include "megate/topo/tunnels.h"

namespace megate::topo {
namespace {

Graph triangle() {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId c = g.add_node("c");
  g.add_duplex_link(a, b, 100, 1.0);
  g.add_duplex_link(b, c, 100, 1.0);
  g.add_duplex_link(a, c, 100, 5.0);
  return g;
}

// --- Graph -----------------------------------------------------------------

TEST(Graph, AddNodesAndLinks) {
  Graph g = triangle();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_links(), 6u);  // duplex = 2 directed each
  EXPECT_EQ(g.find_node("b"), 1u);
  EXPECT_EQ(g.find_node("zzz"), kInvalidNode);
  EXPECT_EQ(g.out_edges(0).size(), 2u);
}

TEST(Graph, RejectsDuplicateNames) {
  Graph g;
  g.add_node("x");
  EXPECT_THROW(g.add_node("x"), std::invalid_argument);
}

TEST(Graph, RejectsEmptyName) {
  Graph g;
  EXPECT_THROW(g.add_node(""), std::invalid_argument);
}

TEST(Graph, RejectsSelfLoop) {
  Graph g;
  const NodeId a = g.add_node("a");
  EXPECT_THROW(g.add_link(a, a, 10, 1.0), std::invalid_argument);
}

TEST(Graph, RejectsBadCapacity) {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  EXPECT_THROW(g.add_link(a, b, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_link(a, b, 10.0, -1.0), std::invalid_argument);
}

TEST(Graph, LinkStateToggles) {
  Graph g = triangle();
  EXPECT_EQ(g.num_links_up(), 6u);
  g.set_link_state(0, false);
  EXPECT_EQ(g.num_links_up(), 5u);
  g.set_link_state(0, true);
  EXPECT_EQ(g.num_links_up(), 6u);
}

TEST(Graph, ConnectivityReflectsFailures) {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  auto [ab, ba] = g.add_duplex_link(a, b, 10, 1.0);
  EXPECT_TRUE(g.is_connected());
  g.set_link_state(ab, false);
  g.set_link_state(ba, false);
  EXPECT_FALSE(g.is_connected());
}

TEST(Graph, ReversedFlipsEveryLinkAndKeepsIdsAndState) {
  Graph g = triangle();
  g.add_link(0, 2, 7, 2.5);  // one-way
  g.set_link_state(2, false);
  const Graph r = g.reversed();
  ASSERT_EQ(r.num_nodes(), g.num_nodes());
  ASSERT_EQ(r.num_links(), g.num_links());
  for (EdgeId e = 0; e < g.num_links(); ++e) {
    EXPECT_EQ(r.link(e).src, g.link(e).dst);
    EXPECT_EQ(r.link(e).dst, g.link(e).src);
    EXPECT_EQ(r.link(e).latency_ms, g.link(e).latency_ms);
    EXPECT_EQ(r.link(e).up, g.link(e).up);
  }
  // The one-way link 0 -> 2 leaves node 2 in the reversed graph.
  const auto out = r.out_edges(2);
  EXPECT_NE(std::find(out.begin(), out.end(), EdgeId{6}), out.end());
  EXPECT_EQ(r.node_name(1), g.node_name(1));
}

// --- shortest path ------------------------------------------------------

TEST(ShortestPath, PicksLowLatencyRoute) {
  Graph g = triangle();
  auto p = shortest_path(g, 0, 2);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->latency_ms, 2.0);  // a-b-c beats a-c (5 ms)
  EXPECT_EQ(p->hops(), 2u);
}

TEST(ShortestPath, RespectsDownLinks) {
  Graph g = triangle();
  // Kill a->b so the direct a->c link must be used.
  for (EdgeId e = 0; e < g.num_links(); ++e) {
    const Link& l = g.link(e);
    if (l.src == 0 && l.dst == 1) g.set_link_state(e, false);
  }
  auto p = shortest_path(g, 0, 2);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->latency_ms, 5.0);
}

TEST(ShortestPath, UnreachableReturnsNullopt) {
  Graph g;
  g.add_node("a");
  g.add_node("b");
  EXPECT_FALSE(shortest_path(g, 0, 1).has_value());
}

TEST(ShortestPath, BannedLinksAreAvoided) {
  Graph g = triangle();
  std::unordered_set<EdgeId> banned;
  for (EdgeId e = 0; e < g.num_links(); ++e) {
    const Link& l = g.link(e);
    if (l.src == 0 && l.dst == 1) banned.insert(e);
  }
  PathConstraints c;
  c.banned_links = &banned;
  auto p = shortest_path(g, 0, 2, c);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->latency_ms, 5.0);
}

// --- Yen's KSP ------------------------------------------------------------

TEST(Ksp, ReturnsSortedLooplessDistinctPaths) {
  GeneratorOptions opt;
  opt.seed = 3;
  Graph g = make_isp_like(20, 32, opt);
  const TunnelSet ts = build_tunnels(g, {.tunnels_per_pair = 4});
  const auto& paths = ts.tunnels(0, 15);
  ASSERT_GE(paths.size(), 2u);
  std::set<std::vector<EdgeId>> seen;
  double prev = 0.0;
  for (const Tunnel& p : paths) {
    EXPECT_GE(p.latency_ms, prev);
    prev = p.latency_ms;
    EXPECT_TRUE(seen.insert(p.links).second) << "duplicate path";
    // loopless: no node visited twice
    std::set<NodeId> nodes;
    nodes.insert(g.link(p.links.front()).src);
    for (EdgeId e : p.links) {
      EXPECT_TRUE(nodes.insert(g.link(e).dst).second) << "loop in path";
    }
    // contiguity: each link starts where the previous ended
    for (std::size_t i = 1; i < p.links.size(); ++i) {
      EXPECT_EQ(g.link(p.links[i]).src, g.link(p.links[i - 1]).dst);
    }
    EXPECT_EQ(g.link(p.links.front()).src, 0u);
    EXPECT_EQ(g.link(p.links.back()).dst, 15u);
  }
}

TEST(Ksp, FirstPathIsShortest) {
  Graph g = triangle();
  const TunnelSet ts = build_tunnels(g, {.tunnels_per_pair = 3});
  const auto& paths = ts.tunnels(0, 2);
  ASSERT_GE(paths.size(), 2u);
  EXPECT_DOUBLE_EQ(paths[0].latency_ms, 2.0);
  EXPECT_DOUBLE_EQ(paths[1].latency_ms, 5.0);
}

TEST(Tunnels, BuildCoversAllConnectedPairs) {
  Graph g = triangle();
  TunnelSet ts = build_tunnels(g);
  EXPECT_EQ(ts.num_pairs(), 6u);  // 3*2 ordered pairs
  const auto& t01 = ts.tunnels(0, 1);
  ASSERT_FALSE(t01.empty());
  EXPECT_DOUBLE_EQ(t01.front().weight, 1.0);  // best tunnel normalized to 1
  for (std::size_t i = 1; i < t01.size(); ++i) {
    EXPECT_GE(t01[i].weight, t01[i - 1].weight);
  }
}

TEST(Tunnels, AliveTracksLinkState) {
  Graph g = triangle();
  TunnelSet ts = build_tunnels(g);
  const auto& t02 = ts.tunnels(0, 2);
  ASSERT_FALSE(t02.empty());
  EXPECT_TRUE(t02.front().alive(g));
  g.set_link_state(t02.front().links.front(), false);
  EXPECT_FALSE(t02.front().alive(g));
}

TEST(Tunnels, RepairReplacesDeadTunnels) {
  GeneratorOptions opt;
  opt.seed = 5;
  Graph g = make_isp_like(12, 20, opt);
  TunnelSet ts = build_tunnels(g);
  auto events = inject_link_failures(g, 2, /*seed=*/11);
  ASSERT_FALSE(events.empty());
  repair_tunnels(g, ts);
  for (const auto& [pair, tunnels] : ts.all()) {
    for (const Tunnel& t : tunnels) {
      EXPECT_TRUE(t.alive(g)) << "repair left a dead tunnel";
    }
  }
  restore_failures(g, events);
}

// --- TunnelSet::fingerprint ------------------------------------------------

Tunnel make_tunnel(std::vector<EdgeId> links, double weight) {
  Tunnel t;
  t.links = std::move(links);
  t.weight = weight;
  return t;
}

TEST(TunnelFingerprint, IndependentOfInsertionOrder) {
  GeneratorOptions opt;
  opt.seed = 3;
  const Graph g = make_isp_like(10, 16, opt);
  const TunnelSet built = build_tunnels(g);
  std::vector<SitePair> order;
  for (const auto& [pair, ts] : built.all()) order.push_back(pair);
  TunnelSet forward;
  TunnelSet backward;
  for (const SitePair& p : order) {
    forward.set_tunnels(p.src, p.dst, built.tunnels(p.src, p.dst));
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    backward.set_tunnels(it->src, it->dst, built.tunnels(it->src, it->dst));
  }
  EXPECT_NE(built.fingerprint(), 0u);
  EXPECT_EQ(forward.fingerprint(), built.fingerprint());
  EXPECT_EQ(backward.fingerprint(), built.fingerprint());
}

TEST(TunnelFingerprint, ReplaceThenRestoreReturnsTheValue) {
  TunnelSet ts;
  const std::vector<Tunnel> original = {make_tunnel({0, 1}, 1.0),
                                        make_tunnel({2}, 1.5)};
  ts.set_tunnels(0, 2, original);
  ts.set_tunnels(1, 2, {make_tunnel({3}, 1.0)});
  const std::uint64_t before = ts.fingerprint();
  ts.set_tunnels(0, 2, {make_tunnel({4, 5}, 1.0)});
  EXPECT_NE(ts.fingerprint(), before);
  ts.set_tunnels(0, 2, original);
  EXPECT_EQ(ts.fingerprint(), before);
}

TEST(TunnelFingerprint, CopiesAndMovesCarryTheValue) {
  GeneratorOptions opt;
  opt.seed = 4;
  const Graph g = make_isp_like(8, 12, opt);
  const TunnelSet built = build_tunnels(g);
  const TunnelSet copy = built;
  EXPECT_EQ(copy.fingerprint(), built.fingerprint());
  TunnelSet assigned;
  assigned.set_tunnels(0, 1, {make_tunnel({0}, 1.0)});
  assigned = built;
  EXPECT_EQ(assigned.fingerprint(), built.fingerprint());
  TunnelSet moved = std::move(assigned);
  EXPECT_EQ(moved.fingerprint(), built.fingerprint());
}

TEST(TunnelFingerprint, AnyContentChangeMovesTheValue) {
  const std::vector<Tunnel> base = {make_tunnel({0, 1, 2}, 1.0),
                                    make_tunnel({3, 4}, 1.25)};
  TunnelSet ref;
  ref.set_tunnels(0, 1, base);
  const std::uint64_t fp = ref.fingerprint();
  const auto fingerprint_of = [](const std::vector<Tunnel>& ts) {
    TunnelSet set;
    set.set_tunnels(0, 1, ts);
    return set.fingerprint();
  };
  // Every link id of every tunnel.
  for (std::size_t t = 0; t < base.size(); ++t) {
    for (std::size_t i = 0; i < base[t].links.size(); ++i) {
      std::vector<Tunnel> changed = base;
      changed[t].links[i] += 7;
      EXPECT_NE(fingerprint_of(changed), fp) << "tunnel " << t << " link " << i;
    }
  }
  // Tunnel count, link count and weight.
  EXPECT_NE(fingerprint_of({base[0]}), fp);
  std::vector<Tunnel> longer = base;
  longer[1].links.push_back(5);
  EXPECT_NE(fingerprint_of(longer), fp);
  std::vector<Tunnel> heavier = base;
  heavier[1].weight = std::nextafter(heavier[1].weight, 2.0);
  EXPECT_NE(fingerprint_of(heavier), fp);
  // The same tunnels under another pair.
  TunnelSet other_pair;
  other_pair.set_tunnels(1, 0, base);
  EXPECT_NE(other_pair.fingerprint(), fp);
}

// --- generators ------------------------------------------------------------

struct TopoCase {
  const char* name;
  TopologyKind kind;
  std::size_t sites;
  std::size_t duplex_links;
};

// Without this gtest prints the case as a raw byte dump, padding included,
// so the test's listed name changed from run to run.
void PrintTo(const TopoCase& c, std::ostream* os) {
  *os << c.name << " " << c.sites << " sites " << c.duplex_links
      << " duplex links";
}

class GeneratorSuite : public ::testing::TestWithParam<TopoCase> {};

TEST_P(GeneratorSuite, MatchesPublishedScale) {
  const TopoCase c = GetParam();
  GeneratorOptions opt;
  opt.seed = 42;
  Graph g = make_topology(c.kind, opt);
  EXPECT_EQ(g.num_nodes(), c.sites);
  EXPECT_EQ(g.num_links(), c.duplex_links * 2);
  EXPECT_TRUE(g.is_connected());
  for (const Link& l : g.links()) {
    EXPECT_GT(l.capacity_gbps, 0.0);
    EXPECT_GT(l.latency_ms, 0.0);
    EXPECT_GT(l.cost_per_gbps, 0.0);
    EXPECT_GT(l.availability, 0.99);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperTopologies, GeneratorSuite,
    ::testing::Values(TopoCase{"B4", TopologyKind::kB4, 12, 19},
                      TopoCase{"Deltacom", TopologyKind::kDeltacom, 113, 161},
                      TopoCase{"Cogentco", TopologyKind::kCogentco, 197, 245},
                      TopoCase{"TWAN", TopologyKind::kTwan, 100, 400}));

TEST(Generators, DeterministicInSeed) {
  GeneratorOptions opt;
  opt.seed = 77;
  Graph a = make_topology(TopologyKind::kB4, opt);
  Graph b = make_topology(TopologyKind::kB4, opt);
  ASSERT_EQ(a.num_links(), b.num_links());
  for (EdgeId e = 0; e < a.num_links(); ++e) {
    EXPECT_EQ(a.link(e).src, b.link(e).src);
    EXPECT_DOUBLE_EQ(a.link(e).capacity_gbps, b.link(e).capacity_gbps);
    EXPECT_DOUBLE_EQ(a.link(e).latency_ms, b.link(e).latency_ms);
  }
}

TEST(Generators, DifferentSeedsDiffer) {
  GeneratorOptions a, b;
  a.seed = 1;
  b.seed = 2;
  Graph ga = make_topology(TopologyKind::kB4, a);
  Graph gb = make_topology(TopologyKind::kB4, b);
  bool any_diff = false;
  for (EdgeId e = 0; e < ga.num_links() && e < gb.num_links(); ++e) {
    if (ga.link(e).latency_ms != gb.link(e).latency_ms) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generators, TwanSiteCountConfigurable) {
  GeneratorOptions opt;
  opt.twan_sites = 40;
  Graph g = make_topology(TopologyKind::kTwan, opt);
  EXPECT_EQ(g.num_nodes(), 40u);
}

TEST(Generators, RejectsImpossibleBudget) {
  GeneratorOptions opt;
  EXPECT_THROW(make_isp_like(10, 5, opt), std::invalid_argument);
  EXPECT_THROW(make_isp_like(1, 5, opt), std::invalid_argument);
}

// --- failures ----------------------------------------------------------

TEST(Failures, KeepsGraphConnected) {
  GeneratorOptions opt;
  opt.seed = 8;
  Graph g = make_topology(TopologyKind::kDeltacom, opt);
  auto events = inject_link_failures(g, 5, 123);
  EXPECT_EQ(events.size(), 5u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.num_links_up(), g.num_links() - 10);  // duplex pairs down
  restore_failures(g, events);
  EXPECT_EQ(g.num_links_up(), g.num_links());
}

TEST(Failures, DeterministicInSeed) {
  GeneratorOptions opt;
  Graph g1 = make_topology(TopologyKind::kB4, opt);
  Graph g2 = make_topology(TopologyKind::kB4, opt);
  auto e1 = inject_link_failures(g1, 3, 55);
  auto e2 = inject_link_failures(g2, 3, 55);
  ASSERT_EQ(e1.size(), e2.size());
  for (std::size_t i = 0; i < e1.size(); ++i) {
    EXPECT_EQ(e1[i].forward, e2[i].forward);
  }
}

TEST(Failures, FailsLinksInsideIslandsOfAPartitionedGraph) {
  // Two disjoint triangles: each survives the loss of any one link, but
  // not of two, so at most one link per triangle may fail.
  Graph g;
  for (int v = 0; v < 6; ++v) g.add_node("n" + std::to_string(v));
  for (NodeId base : {0u, 3u}) {
    g.add_duplex_link(base, base + 1, 10, 1);
    g.add_duplex_link(base + 1, base + 2, 10, 1);
    g.add_duplex_link(base + 2, base, 10, 1);
  }
  ASSERT_FALSE(g.is_connected());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto one = inject_link_failures(g, 1, seed);
    EXPECT_EQ(one.size(), 1u) << "seed " << seed;
    restore_failures(g, one);

    const auto all = inject_link_failures(g, 3, seed);
    ASSERT_EQ(all.size(), 2u) << "seed " << seed;
    for (const FailureEvent& ev : all) {
      // Both halves of each failed duplex link are down.
      EXPECT_NE(ev.reverse, kInvalidEdge);
      EXPECT_FALSE(g.link(ev.forward).up);
      EXPECT_FALSE(g.link(ev.reverse).up);
    }
    // One failure per triangle.
    EXPECT_NE(g.link(all[0].forward).src < 3, g.link(all[1].forward).src < 3)
        << "seed " << seed;
    restore_failures(g, all);
    EXPECT_EQ(g.num_links_up(), g.num_links());
  }
}

TEST(Failures, ZeroCountIsNoop) {
  Graph g = triangle();
  auto events = inject_link_failures(g, 0, 1);
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(g.num_links_up(), g.num_links());
}

// --- text format -----------------------------------------------------------

TEST(Format, RoundTripsGeneratedTopology) {
  GeneratorOptions opt;
  opt.seed = 4;
  Graph g = make_topology(TopologyKind::kB4, opt);
  std::stringstream ss;
  write_topology(ss, g);
  Graph h = read_topology(ss);
  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_links(), g.num_links());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(h.node_name(v), g.node_name(v));
  }
  // Total capacity/latency must survive (link order may differ).
  double cap_g = 0, cap_h = 0, lat_g = 0, lat_h = 0;
  for (const Link& l : g.links()) cap_g += l.capacity_gbps, lat_g += l.latency_ms;
  for (const Link& l : h.links()) cap_h += l.capacity_gbps, lat_h += l.latency_ms;
  EXPECT_NEAR(cap_g, cap_h, 1e-6);
  EXPECT_NEAR(lat_g, lat_h, 1e-6);
}

TEST(Format, RejectsMissingHeader) {
  std::stringstream ss("node a 0 0\n");
  EXPECT_THROW(read_topology(ss), FormatError);
}

TEST(Format, RejectsUnknownDirective) {
  std::stringstream ss("megate-topology v1\nrouter a 0 0\n");
  EXPECT_THROW(read_topology(ss), FormatError);
}

TEST(Format, RejectsLinkToUnknownNode) {
  std::stringstream ss(
      "megate-topology v1\nnode a 0 0\nlink a ghost 10 1 1 0.999\n");
  EXPECT_THROW(read_topology(ss), FormatError);
}

TEST(Format, IgnoresCommentsAndBlanks) {
  std::stringstream ss(
      "megate-topology v1\n# comment\n\nnode a 0 0\nnode b 1 1\n"
      "link a b 10 1 1 0.999  # trailing comment\n");
  Graph g = read_topology(ss);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_links(), 2u);
}

TEST(Format, RejectsMalformedNode) {
  std::stringstream ss("megate-topology v1\nnode onlyname\n");
  EXPECT_THROW(read_topology(ss), FormatError);
}

}  // namespace
}  // namespace megate::topo

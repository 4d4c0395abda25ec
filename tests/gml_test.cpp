// Tests for the Topology Zoo GML-subset reader.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>

#include "megate/topo/gml.h"
#include "megate/topo/tunnels.h"

namespace megate::topo {
namespace {

constexpr const char* kSmallGml = R"(
Creator "Topology Zoo Toolset"
graph [
  directed 0
  label "Tiny"
  node [
    id 0
    label "New York"
    Longitude -74.0
    Latitude 40.7
  ]
  node [
    id 1
    label "Chicago"
    Longitude -87.6
    Latitude 41.8
  ]
  node [
    id 2
    label "Dallas"
    Longitude -96.8
    Latitude 32.8
  ]
  edge [
    source 0
    target 1
    LinkSpeedRaw 10000000000
  ]
  edge [
    source 1
    target 2
  ]
  edge [
    source 0
    target 2
  ]
]
)";

TEST(Gml, ParsesNodesAndEdges) {
  std::istringstream is(kSmallGml);
  Graph g = read_gml(is);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_links(), 6u);  // 3 duplex links
  EXPECT_NE(g.find_node("New_York"), kInvalidNode);  // spaces sanitized
  EXPECT_NE(g.find_node("Chicago"), kInvalidNode);
  EXPECT_TRUE(g.is_connected());
}

TEST(Gml, LinkSpeedBecomesCapacity) {
  std::istringstream is(kSmallGml);
  Graph g = read_gml(is);
  const NodeId ny = g.find_node("New_York");
  const NodeId chi = g.find_node("Chicago");
  bool found = false;
  for (const Link& l : g.links()) {
    if (l.src == ny && l.dst == chi) {
      EXPECT_DOUBLE_EQ(l.capacity_gbps, 10.0);  // 1e10 bps
      found = true;
    }
    EXPECT_GT(l.capacity_gbps, 0.0);
    EXPECT_GE(l.latency_ms, 0.1);
  }
  EXPECT_TRUE(found);
}

TEST(Gml, LatencyTracksGeography) {
  std::istringstream is(kSmallGml);
  Graph g = read_gml(is);
  const NodeId ny = g.find_node("New_York");
  const NodeId chi = g.find_node("Chicago");
  const NodeId dal = g.find_node("Dallas");
  double ny_chi = 0, ny_dal = 0;
  for (const Link& l : g.links()) {
    if (l.src == ny && l.dst == chi) ny_chi = l.latency_ms;
    if (l.src == ny && l.dst == dal) ny_dal = l.latency_ms;
  }
  EXPECT_GT(ny_dal, ny_chi) << "Dallas is farther from NY than Chicago";
}

TEST(Gml, SkipsSelfLoopsAndDuplicates) {
  std::istringstream is(R"(
graph [
  node [ id 0 label "a" ]
  node [ id 1 label "b" ]
  edge [ source 0 target 0 ]
  edge [ source 0 target 1 ]
  edge [ source 1 target 0 ]
]
)");
  Graph g = read_gml(is);
  EXPECT_EQ(g.num_links(), 2u);  // one duplex link survives
}

TEST(Gml, DeduplicatesRepeatedLabels) {
  std::istringstream is(R"(
graph [
  node [ id 0 label "x" ]
  node [ id 1 label "x" ]
  edge [ source 0 target 1 ]
]
)");
  Graph g = read_gml(is);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_NE(g.find_node("x"), kInvalidNode);
  EXPECT_NE(g.find_node("x#1"), kInvalidNode);
}

TEST(Gml, SkipsNestedBlocks) {
  std::istringstream is(R"(
graph [
  node [ id 0 label "a" graphics [ x 1 y 2 w 3 ] ]
  node [ id 1 label "b" ]
  edge [ source 0 target 1 ]
]
)");
  Graph g = read_gml(is);
  EXPECT_EQ(g.num_nodes(), 2u);
}

TEST(Gml, MissingCoordinatesUseLatencyFloor) {
  std::istringstream is(R"(
graph [
  node [ id 0 label "a" ]
  node [ id 1 label "b" ]
  edge [ source 0 target 1 ]
]
)");
  Graph g = read_gml(is);
  EXPECT_DOUBLE_EQ(g.link(0).latency_ms, 0.1);
}

TEST(Gml, RejectsMalformedInputs) {
  {
    std::istringstream is("node [ id 0 label a ]");
    EXPECT_THROW(read_gml(is), FormatError);  // no graph keyword
  }
  {
    std::istringstream is("graph [ node [ id 0 label a ");
    EXPECT_THROW(read_gml(is), FormatError);  // unterminated block
  }
  {
    std::istringstream is(
        "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 9 ] ]");
    EXPECT_THROW(read_gml(is), FormatError);  // unknown node id
  }
  {
    std::istringstream is("graph [ edge [ source 0 target 1 ] ]");
    EXPECT_THROW(read_gml(is), FormatError);  // no nodes
  }
}

TEST(Gml, LoadedGraphWorksWithTunnels) {
  std::istringstream is(kSmallGml);
  Graph g = read_gml(is);
  TunnelSet ts = build_tunnels(g);
  EXPECT_EQ(ts.num_pairs(), 6u);
  const auto& t = ts.tunnels(0, 2);
  ASSERT_FALSE(t.empty());
  EXPECT_GE(t.size(), 2u) << "triangle offers a direct and an indirect path";
}

// --- pinned constants ------------------------------------------------------

/// Bit digest of every link's capacity and latency in kSmallGml, recorded
/// at the commit before the reader's options became constants. Two of its
/// edges carry no LinkSpeed (the 100 Gbps default) and every latency comes
/// from the ms-per-degree scale.
constexpr std::uint64_t kPinnedGmlLinks = 0x7e0cb9f295c4f305ULL;

TEST(GmlPinned, LinkAttributesMatchParent) {
  std::istringstream is(kSmallGml);
  const Graph g = read_gml(is);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const Link& l : g.links()) {
    h = (h ^ std::bit_cast<std::uint64_t>(l.capacity_gbps)) * 0x100000001B3ULL;
    h = (h ^ std::bit_cast<std::uint64_t>(l.latency_ms)) * 0x100000001B3ULL;
  }
  EXPECT_EQ(h, kPinnedGmlLinks) << std::hex << "got 0x" << h;
}

}  // namespace
}  // namespace megate::topo

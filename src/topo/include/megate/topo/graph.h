#pragma once
// Site-level WAN topology (the "first layer" of the MegaTE contraction).
//
// Nodes are router sites; links are directed (a duplex fiber is two
// directed links) and carry capacity, propagation latency, availability
// and a monetary cost per Gbps — the three attributes the paper's
// production results (Figs. 15-17) are driven by.
//
// Endpoints are *not* part of this graph: per the paper's observation the
// second layer is a pure star (each endpoint homed on exactly one site),
// so endpoints live in megate::tm as per-site counts and demands.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace megate::topo {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr EdgeId kInvalidEdge = ~EdgeId{0};
inline constexpr NodeId kInvalidNode = ~NodeId{0};

/// Directed WAN link between two router sites.
struct Link {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  double capacity_gbps = 0.0;
  double latency_ms = 0.0;      ///< propagation delay
  double cost_per_gbps = 1.0;   ///< monetary cost (Fig. 17)
  double availability = 0.9999; ///< per-link availability (Fig. 16)
  bool up = true;               ///< false once failed (Fig. 12)
};

/// Node position; used by the generators for distance-derived latency and
/// retained so topologies round-trip through the text format.
struct NodePos {
  double x = 0.0;
  double y = 0.0;
};

class Graph {
 public:
  /// Adds a site; names must be unique and non-empty.
  NodeId add_node(std::string name, NodePos pos = {});

  /// Adds one directed link; returns its id.
  EdgeId add_link(NodeId src, NodeId dst, double capacity_gbps,
                  double latency_ms, double cost_per_gbps = 1.0,
                  double availability = 0.9999);

  /// Adds both directions with identical attributes.
  std::pair<EdgeId, EdgeId> add_duplex_link(NodeId a, NodeId b,
                                            double capacity_gbps,
                                            double latency_ms,
                                            double cost_per_gbps = 1.0,
                                            double availability = 0.9999);

  std::size_t num_nodes() const noexcept { return names_.size(); }
  std::size_t num_links() const noexcept { return links_.size(); }
  /// Number of links currently up.
  std::size_t num_links_up() const noexcept;

  const Link& link(EdgeId e) const { return links_[e]; }
  Link& link(EdgeId e) { return links_[e]; }
  const std::string& node_name(NodeId v) const { return names_[v]; }
  const NodePos& node_pos(NodeId v) const { return pos_[v]; }
  /// Node id by name, or kInvalidNode.
  NodeId find_node(std::string_view name) const noexcept;

  std::span<const EdgeId> out_edges(NodeId v) const {
    return {out_[v].data(), out_[v].size()};
  }
  std::span<const Link> links() const noexcept {
    return {links_.data(), links_.size()};
  }

  /// Marks a link (single direction) down/up.
  void set_link_state(EdgeId e, bool up) { links_[e].up = up; }

  /// True if every node can reach every other over up links.
  bool is_connected() const;

  /// The same sites and link ids, with every link's direction flipped
  /// (state and attributes kept): the result's out-edges of v are this
  /// graph's in-edges of v.
  Graph reversed() const;

 private:
  std::vector<std::string> names_;
  std::vector<NodePos> pos_;
  std::vector<Link> links_;
  std::vector<std::vector<EdgeId>> out_;
};

}  // namespace megate::topo

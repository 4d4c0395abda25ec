#pragma once
// Latency-weighted shortest paths over the site graph (Dijkstra). The
// tunnel builder runs these relaxation and equal-distance parent rules on
// reusable per-worker buffers in tunnels.cpp, goal-directed by exact
// potentials in its spur searches, and returns the same paths (DESIGN.md
// §13); shortest_path is the one-shot form and the reference its tests
// compare that builder against.

#include <optional>
#include <unordered_set>
#include <vector>

#include "megate/topo/graph.h"

namespace megate::topo {

/// A loop-free directed path as a link sequence.
struct Path {
  std::vector<EdgeId> links;
  double latency_ms = 0.0;

  bool empty() const noexcept { return links.empty(); }
  std::size_t hops() const noexcept { return links.size(); }
};

/// Options restricting the search (Yen-style spur computation,
/// failure-aware recomputation).
struct PathConstraints {
  /// Links that must not be used (in addition to links that are down).
  const std::unordered_set<EdgeId>* banned_links = nullptr;
  /// Nodes that must not be visited (source exempt).
  const std::unordered_set<NodeId>* banned_nodes = nullptr;
};

/// Latency-shortest path from src to dst over up links, or nullopt if
/// unreachable under the constraints.
std::optional<Path> shortest_path(const Graph& g, NodeId src, NodeId dst,
                                  const PathConstraints& constraints = {});

}  // namespace megate::topo

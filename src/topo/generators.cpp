#include "megate/topo/generators.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "megate/util/rng.h"

namespace megate::topo {

using util::Rng;

const char* to_string(TopologyKind k) noexcept {
  switch (k) {
    case TopologyKind::kB4: return "B4*";
    case TopologyKind::kDeltacom: return "Deltacom*";
    case TopologyKind::kCogentco: return "Cogentco*";
    case TopologyKind::kTwan: return "TWAN";
  }
  return "?";
}

namespace {

double plane_latency(const NodePos& a, const NodePos& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  // Positions are already in "milliseconds of propagation" units; keep a
  // 0.1 ms switching floor so co-located sites never get zero latency.
  return std::max(0.1, std::sqrt(dx * dx + dy * dy));
}

/// Link capacity range in Gbps (uniform per duplex link).
constexpr double kMinCapacityGbps = 100.0;
constexpr double kMaxCapacityGbps = 400.0;

double pick_capacity(Rng& rng) {
  // Round to 50 Gbps steps like real provisioned circuits.
  const double c = rng.uniform(kMinCapacityGbps, kMaxCapacityGbps);
  return std::max(50.0, std::round(c / 50.0) * 50.0);
}

double pick_cost(Rng& rng, double latency_ms) {
  // Longer circuits cost more per Gbps; add jitter for provider diversity.
  return (0.5 + 0.1 * latency_ms) * rng.uniform(0.8, 1.2);
}

double pick_availability(Rng& rng) {
  // Three nines to five nines, skewed towards four.
  const double draws[] = {0.999, 0.9995, 0.9999, 0.9999, 0.99999};
  return draws[rng.uniform_int(0, 4)];
}

}  // namespace

Graph make_isp_like(std::uint32_t nodes, std::uint32_t duplex_links,
                    const GeneratorOptions& options, double width_ms,
                    double height_ms, std::string name_prefix) {
  if (nodes < 2) throw std::invalid_argument("need at least 2 nodes");
  if (duplex_links + 1 < nodes) {
    throw std::invalid_argument("need at least nodes-1 duplex links");
  }
  Rng rng(options.seed);
  Graph g;
  for (std::uint32_t i = 0; i < nodes; ++i) {
    NodePos pos{rng.uniform(0.0, width_ms), rng.uniform(0.0, height_ms)};
    g.add_node(name_prefix + std::to_string(i), pos);
  }

  // Greedy geometric spanning tree: attach each node to its nearest
  // already-connected node — yields the chain/star mix of real ISP maps.
  std::vector<std::vector<bool>> connected(nodes,
                                           std::vector<bool>(nodes, false));
  auto link_pair = [&](NodeId a, NodeId b) {
    const double lat = plane_latency(g.node_pos(a), g.node_pos(b));
    g.add_duplex_link(a, b, pick_capacity(rng), lat,
                      pick_cost(rng, lat), pick_availability(rng));
    connected[a][b] = connected[b][a] = true;
  };

  std::vector<NodeId> in_tree{0};
  for (NodeId v = 1; v < nodes; ++v) {
    NodeId best = in_tree.front();
    double best_d = plane_latency(g.node_pos(v), g.node_pos(best));
    for (NodeId u : in_tree) {
      const double d = plane_latency(g.node_pos(v), g.node_pos(u));
      if (d < best_d) {
        best_d = d;
        best = u;
      }
    }
    link_pair(v, best);
    in_tree.push_back(v);
  }

  // Shortcut chords: prefer short geometric distances (ISP rings/meshes are
  // regional), sampled without replacement until the link budget is spent.
  std::uint32_t added = nodes - 1;
  std::uint32_t attempts = 0;
  const std::uint32_t max_attempts = duplex_links * 64 + 1024;
  while (added < duplex_links && attempts++ < max_attempts) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
    const auto b = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
    if (a == b || connected[a][b]) continue;
    const double d = plane_latency(g.node_pos(a), g.node_pos(b));
    // Accept with probability decaying in distance, so most chords are
    // regional but a few long-haul links exist.
    const double diag = std::sqrt(width_ms * width_ms + height_ms * height_ms);
    if (rng.uniform() > std::exp(-3.0 * d / diag)) continue;
    link_pair(a, b);
    ++added;
  }
  // Budget not met by the decay rule (tiny graphs): fill greedily.
  for (NodeId a = 0; a < nodes && added < duplex_links; ++a) {
    for (NodeId b = a + 1; b < nodes && added < duplex_links; ++b) {
      if (connected[a][b]) continue;
      link_pair(a, b);
      ++added;
    }
  }
  return g;
}

Graph make_topology(TopologyKind kind, const GeneratorOptions& options) {
  switch (kind) {
    case TopologyKind::kB4:
      // Google's B4: 12 sites across 3 continents, 19 inter-site links.
      return make_isp_like(12, 19, options, 60.0, 25.0, "b4-");
    case TopologyKind::kDeltacom:
      // Topology Zoo "Deltacom": 113 nodes, 161 links (US southeast).
      return make_isp_like(113, 161, options, 20.0, 12.0, "dc-");
    case TopologyKind::kCogentco:
      // Topology Zoo "Cogentco": 197 nodes, 245 links (US + EU).
      return make_isp_like(197, 245, options, 45.0, 20.0, "cg-");
    case TopologyKind::kTwan: {
      // Production-style WAN: highly meshed among O(100) sites (§4.2:
      // "the first layer represents a highly meshed topology").
      const std::uint32_t n = options.twan_sites;
      return make_isp_like(n, n * 4, options, 35.0, 18.0, "tw-");
    }
  }
  throw std::invalid_argument("unknown topology kind");
}

}  // namespace megate::topo

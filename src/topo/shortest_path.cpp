#include "megate/topo/shortest_path.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace megate::topo {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct QueueItem {
  double dist;
  NodeId node;
  // Equal distances pop in node-id order so the search (and the parent
  // tree it leaves behind) never depends on heap internals.
  bool operator>(const QueueItem& o) const noexcept {
    if (dist != o.dist) return dist > o.dist;
    return node > o.node;
  }
};

}  // namespace

std::optional<Path> shortest_path(const Graph& g, NodeId src, NodeId dst,
                                  const PathConstraints& constraints) {
  const std::size_t n = g.num_nodes();
  std::vector<double> dist(n, kInf);
  std::vector<EdgeId> parent(n, kInvalidEdge);
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> pq;
  dist[src] = 0.0;
  pq.push({0.0, src});

  auto node_banned = [&](NodeId v) {
    return constraints.banned_nodes != nullptr &&
           constraints.banned_nodes->contains(v);
  };
  auto link_banned = [&](EdgeId e) {
    return constraints.banned_links != nullptr &&
           constraints.banned_links->contains(e);
  };

  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;  // stale entry
    if (v == dst) break;
    for (EdgeId e : g.out_edges(v)) {
      const Link& l = g.link(e);
      if (!l.up || link_banned(e)) continue;
      if (l.dst != dst && node_banned(l.dst)) continue;
      const double nd = d + l.latency_ms;
      if (nd < dist[l.dst]) {
        dist[l.dst] = nd;
        parent[l.dst] = e;
        pq.push({nd, l.dst});
      } else if (nd == dist[l.dst] && d < dist[l.dst] &&
                 e < parent[l.dst]) {
        // Equal total distance: keep the canonical (smallest) parent edge.
        // The d < dist guard (false only for zero-latency links) keeps
        // parent chains strictly decreasing, i.e. acyclic.
        parent[l.dst] = e;
      }
    }
  }

  if (dist[dst] == kInf) return std::nullopt;
  Path p;
  p.latency_ms = dist[dst];
  for (NodeId v = dst; v != src;) {
    const EdgeId e = parent[v];
    p.links.push_back(e);
    v = g.link(e).src;
  }
  std::reverse(p.links.begin(), p.links.end());
  return p;
}

}  // namespace megate::topo

#include "megate/topo/failures.h"

#include <algorithm>

#include "megate/util/rng.h"

namespace megate::topo {

namespace {

/// Finds the reverse directed link of `e`, if any.
EdgeId find_reverse(const Graph& g, EdgeId e) {
  const Link& l = g.link(e);
  for (EdgeId r : g.out_edges(l.dst)) {
    if (g.link(r).dst == l.src) return r;
  }
  return kInvalidEdge;
}

/// True if `to` is reachable from `from` over up links.
bool reaches(const Graph& g, NodeId from, NodeId to) {
  std::vector<bool> seen(g.num_nodes(), false);
  std::vector<NodeId> stack{from};
  seen[from] = true;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    if (v == to) return true;
    for (EdgeId e : g.out_edges(v)) {
      const Link& l = g.link(e);
      if (!l.up || seen[l.dst]) continue;
      seen[l.dst] = true;
      stack.push_back(l.dst);
    }
  }
  return false;
}

}  // namespace

bool try_fail_link(Graph& g, const FailureEvent& link) {
  g.set_link_state(link.forward, false);
  if (link.reverse != kInvalidEdge) g.set_link_state(link.reverse, false);
  const Link& l = g.link(link.forward);
  if (reaches(g, l.src, l.dst) && reaches(g, l.dst, l.src)) return true;
  g.set_link_state(link.forward, true);
  if (link.reverse != kInvalidEdge) g.set_link_state(link.reverse, true);
  return false;
}

std::vector<FailureEvent> inject_link_failures(Graph& g, std::uint32_t count,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<FailureEvent> events;
  if (g.num_links() == 0) return events;

  // Candidate duplex links (forward id < reverse id to dedup).
  std::vector<FailureEvent> candidates;
  for (EdgeId e = 0; e < g.num_links(); ++e) {
    if (!g.link(e).up) continue;
    const EdgeId r = find_reverse(g, e);
    if (r != kInvalidEdge && r < e) continue;  // handled from the other side
    candidates.push_back(FailureEvent{e, r});
  }
  // Deterministic shuffle.
  for (std::size_t i = candidates.size(); i > 1; --i) {
    std::swap(candidates[i - 1],
              candidates[rng.uniform_int(0, i - 1)]);
  }

  for (const FailureEvent& ev : candidates) {
    if (events.size() >= count) break;
    if (try_fail_link(g, ev)) events.push_back(ev);
  }
  return events;
}

void restore_failures(Graph& g, const std::vector<FailureEvent>& events) {
  for (const FailureEvent& ev : events) {
    g.set_link_state(ev.forward, true);
    if (ev.reverse != kInvalidEdge) g.set_link_state(ev.reverse, true);
  }
}

}  // namespace megate::topo

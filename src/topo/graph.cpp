#include "megate/topo/graph.h"

#include <stdexcept>
#include <utility>

namespace megate::topo {

NodeId Graph::add_node(std::string name, NodePos pos) {
  if (name.empty()) throw std::invalid_argument("node name must be non-empty");
  if (find_node(name) != kInvalidNode) {
    throw std::invalid_argument("duplicate node name: " + name);
  }
  names_.push_back(std::move(name));
  pos_.push_back(pos);
  out_.emplace_back();
  return static_cast<NodeId>(names_.size() - 1);
}

EdgeId Graph::add_link(NodeId src, NodeId dst, double capacity_gbps,
                       double latency_ms, double cost_per_gbps,
                       double availability) {
  if (src >= names_.size() || dst >= names_.size()) {
    throw std::out_of_range("link endpoint out of range");
  }
  if (src == dst) throw std::invalid_argument("self-loop links not allowed");
  if (capacity_gbps <= 0.0 || latency_ms < 0.0) {
    throw std::invalid_argument("link capacity must be > 0, latency >= 0");
  }
  Link l;
  l.src = src;
  l.dst = dst;
  l.capacity_gbps = capacity_gbps;
  l.latency_ms = latency_ms;
  l.cost_per_gbps = cost_per_gbps;
  l.availability = availability;
  links_.push_back(l);
  const auto id = static_cast<EdgeId>(links_.size() - 1);
  out_[src].push_back(id);
  return id;
}

std::pair<EdgeId, EdgeId> Graph::add_duplex_link(NodeId a, NodeId b,
                                                 double capacity_gbps,
                                                 double latency_ms,
                                                 double cost_per_gbps,
                                                 double availability) {
  EdgeId ab = add_link(a, b, capacity_gbps, latency_ms, cost_per_gbps,
                       availability);
  EdgeId ba = add_link(b, a, capacity_gbps, latency_ms, cost_per_gbps,
                       availability);
  return {ab, ba};
}

std::size_t Graph::num_links_up() const noexcept {
  std::size_t n = 0;
  for (const Link& l : links_) n += l.up ? 1 : 0;
  return n;
}

NodeId Graph::find_node(std::string_view name) const noexcept {
  for (std::size_t v = 0; v < names_.size(); ++v) {
    if (names_[v] == name) return static_cast<NodeId>(v);
  }
  return kInvalidNode;
}

Graph Graph::reversed() const {
  Graph r;
  r.names_ = names_;
  r.pos_ = pos_;
  r.links_ = links_;
  r.out_.resize(names_.size());
  for (EdgeId e = 0; e < r.links_.size(); ++e) {
    Link& l = r.links_[e];
    std::swap(l.src, l.dst);
    r.out_[l.src].push_back(e);
  }
  return r;
}

bool Graph::is_connected() const {
  if (names_.empty()) return true;
  std::vector<bool> seen(names_.size(), false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  std::size_t reached = 1;
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    for (EdgeId e : out_[v]) {
      const Link& l = links_[e];
      if (!l.up || seen[l.dst]) continue;
      seen[l.dst] = true;
      ++reached;
      stack.push_back(l.dst);
    }
  }
  return reached == names_.size();
}

}  // namespace megate::topo

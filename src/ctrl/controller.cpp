#include "megate/ctrl/controller.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "megate/dataplane/host_stack.h"

namespace megate::ctrl {

std::string path_key(std::uint64_t instance_id) {
  return "path/" + std::to_string(instance_id);
}

std::string encode_hops(const std::vector<std::uint32_t>& hops) {
  std::string out;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (i) out.push_back(',');
    out += std::to_string(hops[i]);
  }
  return out;
}

std::vector<std::uint32_t> decode_hops(const std::string& text) {
  std::vector<std::uint32_t> hops;
  const char* p = text.data();
  const char* end = p + text.size();
  while (p < end) {
    std::uint32_t v = 0;
    auto [next, ec] = std::from_chars(p, end, v);
    if (ec != std::errc{}) break;  // malformed tail: keep what parsed
    hops.push_back(v);
    p = next;
    if (p < end && *p == ',') ++p;
  }
  return hops;
}

std::string encode_routes(const std::vector<RouteEntry>& routes) {
  std::string out;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    if (i) out.push_back('|');
    if (routes[i].dst_site == dataplane::kAnyDstSite) {
      out.push_back('*');
    } else {
      out += std::to_string(routes[i].dst_site);
    }
    out.push_back(':');
    out += encode_hops(routes[i].hops);
  }
  return out;
}

std::vector<RouteEntry> decode_routes(const std::string& text) {
  std::vector<RouteEntry> routes;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('|', pos);
    if (end == std::string::npos) end = text.size();
    const std::string entry = text.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos) continue;  // malformed entry: skip
    RouteEntry r;
    const std::string site = entry.substr(0, colon);
    if (site == "*") {
      r.dst_site = dataplane::kAnyDstSite;
    } else {
      std::uint32_t v = 0;
      auto [p, ec] = std::from_chars(site.data(), site.data() + site.size(), v);
      if (ec != std::errc{}) continue;
      r.dst_site = v;
    }
    r.hops = decode_hops(entry.substr(colon + 1));
    routes.push_back(std::move(r));
  }
  return routes;
}

std::uint64_t Controller::full_table_bytes() const noexcept {
  std::uint64_t bytes = 0;
  for (const auto& [instance, live] : live_) {
    bytes += path_key(instance).size() + live.encoded.size();
  }
  return bytes;
}

namespace {

/// One assigned flow's candidate route: (instance, destination site) is
/// the route-table slot, the tunnel its hop list.
struct Pick {
  std::uint64_t instance;
  std::uint32_t dst;
  std::uint32_t flow;  ///< index in the pair's flow vector
  double demand;
  const topo::Tunnel* tunnel;
};

void append_uint(std::string* out, std::uint64_t v) {
  char buf[20];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out->append(buf, end);
}

}  // namespace

Version Controller::publish_solution(const te::TeProblem& problem,
                                     const te::TeSolution& sol) {
  // One pick per assigned flow. Sorting by (instance, destination site,
  // demand descending, flow index) puts each instance's table in one run
  // with the winning flow first in every slot: when several flows of the
  // same (instance, destination site) land on different tunnels, the
  // largest flow's tunnel wins, the first in flow order on a tie — the
  // instance-level pinning of §4.1.
  std::vector<Pick> picks;
  for (const auto& [pair, alloc] : sol.pairs) {
    if (alloc.flow_tunnel.empty()) continue;
    auto it = problem.traffic->pairs().find(pair);
    if (it == problem.traffic->pairs().end()) continue;
    const auto& flows = it->second;
    const auto& tunnels = problem.tunnels->tunnels(pair.src, pair.dst);
    for (std::size_t i = 0;
         i < flows.size() && i < alloc.flow_tunnel.size(); ++i) {
      const std::int32_t t = alloc.flow_tunnel[i];
      if (t < 0 || static_cast<std::size_t>(t) >= tunnels.size()) continue;
      const double d = flows[i].demand_gbps;
      // NaN sorts as the smallest demand, keeping the order strict-weak.
      picks.push_back({flows[i].src, pair.dst, static_cast<std::uint32_t>(i),
                       std::isnan(d) ? -HUGE_VAL : d, &tunnels[t]});
    }
  }
  std::sort(picks.begin(), picks.end(), [](const Pick& a, const Pick& b) {
    if (a.instance != b.instance) return a.instance < b.instance;
    if (a.dst != b.dst) return a.dst < b.dst;
    if (a.demand != b.demand) return a.demand > b.demand;
    return a.flow < b.flow;
  });

  // Encode each instance's table canonically (sorted by destination
  // site) into one reused buffer and compare it in place against the
  // live copy: an unchanged table produces no delta entry. Every table
  // this publish carries is stamped; unstamped live tables are erased.
  ++stamp_;
  KvDelta delta;
  std::string encoded;
  for (std::size_t i = 0; i < picks.size();) {
    const std::uint64_t instance = picks[i].instance;
    encoded.clear();
    for (; i < picks.size() && picks[i].instance == instance; ++i) {
      const Pick& p = picks[i];
      if (i > 0 && picks[i - 1].instance == instance &&
          picks[i - 1].dst == p.dst) {
        continue;  // a smaller flow of an already encoded slot
      }
      if (!encoded.empty()) encoded.push_back('|');
      if (p.dst == dataplane::kAnyDstSite) {
        encoded.push_back('*');
      } else {
        append_uint(&encoded, p.dst);
      }
      encoded.push_back(':');
      for (std::size_t h = 0; h < p.tunnel->links.size(); ++h) {
        if (h) encoded.push_back(',');
        append_uint(&encoded, problem.graph->link(p.tunnel->links[h]).dst);
      }
    }
    auto [it, inserted] = live_.try_emplace(instance);
    it->second.stamp = stamp_;
    if (!inserted && it->second.encoded == encoded) continue;  // unchanged
    it->second.encoded = encoded;
    delta.upserts.emplace_back(path_key(instance), encoded);
  }
  for (auto it = live_.begin(); it != live_.end();) {
    if (it->second.stamp == stamp_) {
      ++it;
      continue;
    }
    delta.erases.push_back(path_key(it->first));
    it = live_.erase(it);
  }
  last_upserts_ = delta.upserts.size();
  last_erases_ = delta.erases.size();
  last_bytes_ = delta.bytes();
  published_ += delta.upserts.size();
  return db_->publish_delta(delta);
}

}  // namespace megate::ctrl

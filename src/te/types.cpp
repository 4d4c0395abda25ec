#include "megate/te/types.h"

#include <functional>

namespace megate::te {
namespace {

/// Five-tuple-style hash of an endpoint pair; stands in for the router
/// ECMP hash of <src_ip, dst_ip, proto, src_port, dst_port>.
std::uint64_t flow_hash(tm::EndpointId src, tm::EndpointId dst,
                        std::uint64_t seed) {
  std::uint64_t h = seed ^ 0x9E3779B97F4A7C15ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  };
  mix(src);
  mix(dst);
  return h;
}

}  // namespace

void assign_flows_by_hash(const TeProblem& problem, TeSolution& sol,
                          std::uint64_t seed) {
  for (auto& [pair, alloc] : sol.pairs) {
    auto it = problem.traffic->pairs().find(pair);
    if (it == problem.traffic->pairs().end()) continue;
    const auto& flows = it->second;
    alloc.flow_tunnel.assign(flows.size(), -1);

    double total_alloc = 0.0;
    for (double f : alloc.tunnel_alloc) total_alloc += f;
    if (total_alloc <= 0.0) continue;
    const double total_demand = [&] {
      double s = 0.0;
      for (const auto& f : flows) s += f.demand_gbps;
      return s;
    }();
    // Routers admit what the aggregate allocation covers; hashing picks the
    // tunnel regardless of QoS class — the conventional-TE behaviour that
    // MegaTE fixes. Flows beyond the admitted fraction are rejected.
    const double admit_fraction =
        total_demand > 0.0 ? std::min(1.0, total_alloc / total_demand) : 0.0;

    for (std::size_t i = 0; i < flows.size(); ++i) {
      const std::uint64_t h =
          flow_hash(flows[i].src, flows[i].dst, seed);
      // First decide admission, then hash onto a tunnel weighted by F_kt.
      const double admit_draw =
          static_cast<double>(h >> 40) / static_cast<double>(1 << 24);
      if (admit_draw > admit_fraction) continue;
      const double pick = (static_cast<double>(h & 0xFFFFFFFFULL) /
                           4294967296.0) *
                          total_alloc;
      double acc = 0.0;
      for (std::size_t t = 0; t < alloc.tunnel_alloc.size(); ++t) {
        acc += alloc.tunnel_alloc[t];
        if (pick <= acc) {
          alloc.flow_tunnel[i] = static_cast<std::int32_t>(t);
          break;
        }
      }
      if (alloc.flow_tunnel[i] == -1 && !alloc.tunnel_alloc.empty()) {
        alloc.flow_tunnel[i] =
            static_cast<std::int32_t>(alloc.tunnel_alloc.size() - 1);
      }
    }
  }
}

namespace {

double mean_latency_impl(const TeProblem& problem, const TeSolution& sol,
                         int qos_filter, bool hops) {
  double weighted = 0.0;
  double weight = 0.0;
  for (const auto& [pair, alloc] : sol.pairs) {
    if (alloc.flow_tunnel.empty()) continue;
    auto it = problem.traffic->pairs().find(pair);
    if (it == problem.traffic->pairs().end()) continue;
    const auto& flows = it->second;
    const auto& tunnels = problem.tunnels->tunnels(pair.src, pair.dst);
    for (std::size_t i = 0; i < flows.size() && i < alloc.flow_tunnel.size();
         ++i) {
      const std::int32_t t = alloc.flow_tunnel[i];
      if (t < 0 || static_cast<std::size_t>(t) >= tunnels.size()) continue;
      if (qos_filter != 0 && static_cast<int>(flows[i].qos) != qos_filter) {
        continue;
      }
      const double lat = hops ? static_cast<double>(tunnels[t].hops())
                              : tunnels[t].latency_ms;
      weighted += flows[i].demand_gbps * lat;
      weight += flows[i].demand_gbps;
    }
  }
  return weight > 0.0 ? weighted / weight : 0.0;
}

}  // namespace

double mean_latency_ms(const TeProblem& problem, const TeSolution& sol,
                       int qos_filter) {
  return mean_latency_impl(problem, sol, qos_filter, /*hops=*/false);
}

double mean_latency_hops(const TeProblem& problem, const TeSolution& sol,
                         int qos_filter) {
  return mean_latency_impl(problem, sol, qos_filter, /*hops=*/true);
}

}  // namespace megate::te

#include "megate/sim/flow_sim.h"

#include <algorithm>

namespace megate::sim {
namespace {

/// Per-hop queueing delay at u -> 1 saturation, before capping.
constexpr double kQueueingMsPerHop = 0.5;
/// Utilization above which the queueing term saturates.
constexpr double kMaxUtilization = 0.98;

}  // namespace

double FlowSimResult::mean_latency_ms(int qos_filter) const {
  double weighted = 0.0, weight = 0.0;
  for (const FlowRecord& f : flows) {
    if (!f.assigned) continue;
    if (qos_filter != 0 && static_cast<int>(f.qos) != qos_filter) continue;
    weighted += f.demand_gbps * f.latency_ms;
    weight += f.demand_gbps;
  }
  return weight > 0.0 ? weighted / weight : 0.0;
}

double FlowSimResult::mean_hops(int qos_filter) const {
  double weighted = 0.0, weight = 0.0;
  for (const FlowRecord& f : flows) {
    if (!f.assigned) continue;
    if (qos_filter != 0 && static_cast<int>(f.qos) != qos_filter) continue;
    weighted += f.demand_gbps * f.hops;
    weight += f.demand_gbps;
  }
  return weight > 0.0 ? weighted / weight : 0.0;
}

double FlowSimResult::assigned_fraction() const {
  double total = 0.0, assigned = 0.0;
  for (const FlowRecord& f : flows) {
    total += f.demand_gbps;
    if (f.assigned) assigned += f.demand_gbps;
  }
  return total > 0.0 ? assigned / total : 0.0;
}

FlowSimResult simulate_flows(const te::TeProblem& problem,
                             const te::TeSolution& sol) {
  FlowSimResult result;
  const topo::Graph& g = *problem.graph;

  // Link utilization from the data-plane view of the solution.
  const std::vector<double> usage = te::link_usage_gbps(problem, sol);
  std::vector<double> queueing_ms(g.num_links(), 0.0);
  for (topo::EdgeId e = 0; e < g.num_links(); ++e) {
    const topo::Link& l = g.link(e);
    if (!l.up || l.capacity_gbps <= 0.0) continue;
    const double u =
        std::min(kMaxUtilization, usage[e] / l.capacity_gbps);
    queueing_ms[e] = kQueueingMsPerHop * u / (1.0 - u);
  }

  for (const auto& [pair, alloc] : sol.pairs) {
    auto it = problem.traffic->pairs().find(pair);
    if (it == problem.traffic->pairs().end()) continue;
    const auto& flows = it->second;
    const auto& tunnels = problem.tunnels->tunnels(pair.src, pair.dst);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      FlowRecord rec;
      rec.qos = flows[i].qos;
      rec.demand_gbps = flows[i].demand_gbps;
      const std::int32_t t =
          i < alloc.flow_tunnel.size() ? alloc.flow_tunnel[i] : -1;
      if (t >= 0 && static_cast<std::size_t>(t) < tunnels.size()) {
        rec.assigned = true;
        rec.hops = static_cast<double>(tunnels[t].hops());
        rec.latency_ms = tunnels[t].latency_ms;
        for (topo::EdgeId e : tunnels[t].links) {
          rec.latency_ms += queueing_ms[e];
        }
      }
      result.flows.push_back(rec);
    }
  }
  return result;
}

}  // namespace megate::sim

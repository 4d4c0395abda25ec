#pragma once
// Shared fixtures for the TE-layer tests: a small deterministic WAN with
// endpoints, tunnels and a traffic matrix sized so solutions are neither
// trivially full nor empty.

#include <memory>

#include "megate/te/types.h"
#include "megate/tm/endpoints.h"
#include "megate/tm/traffic.h"
#include "megate/topo/generators.h"
#include "megate/topo/tunnels.h"

namespace megate::testing {

struct Scenario {
  topo::Graph graph;
  topo::TunnelSet tunnels;
  tm::TrafficMatrix traffic;

  te::TeProblem problem() const {
    te::TeProblem p;
    p.graph = &graph;
    p.tunnels = &tunnels;
    p.traffic = &traffic;
    return p;
  }
};

/// `load` scales total demand relative to total link capacity; ~0.15
/// produces the partially-satisfiable regime the paper's plots live in.
/// The tunnel build every make_scenario runs; repairs of a scenario's
/// tunnels must use the same options.
inline topo::TunnelOptions scenario_tunnel_options() {
  topo::TunnelOptions topt;
  topt.tunnels_per_pair = 3;
  return topt;
}

inline std::unique_ptr<Scenario> make_scenario(std::uint32_t sites,
                                               std::uint32_t links,
                                               std::uint32_t eps_per_site,
                                               double load = 0.15,
                                               std::uint64_t seed = 42) {
  auto s = std::make_unique<Scenario>();
  topo::GeneratorOptions gopt;
  gopt.seed = seed;
  s->graph = topo::make_isp_like(sites, links, gopt);
  s->tunnels = topo::build_tunnels(s->graph, scenario_tunnel_options());
  tm::EndpointLayout layout(
      std::vector<std::uint32_t>(s->graph.num_nodes(), eps_per_site));
  tm::TrafficOptions topts;
  topts.flows_per_endpoint = 1.5;
  topts.target_total_gbps = tm::total_link_capacity_gbps(s->graph) * load;
  s->traffic = tm::generate_traffic(s->graph, layout, topts, seed + 1);
  return s;
}

/// Rebuilds a scenario's tunnels as make_scenario does, but under an SR
/// hop budget; make_scenario's traffic does not depend on the tunnels.
inline void rebuild_tunnels_under_budget(Scenario& s,
                                         std::uint32_t max_sr_hops) {
  topo::TunnelOptions topt = scenario_tunnel_options();
  topt.max_sr_hops = max_sr_hops;
  s.tunnels = topo::build_tunnels(s.graph, topt);
}

}  // namespace megate::testing

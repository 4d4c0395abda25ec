#include "megate/sim/failure_sim.h"

#include <algorithm>

#include "megate/topo/tunnels.h"
#include "megate/util/stopwatch.h"

namespace megate::sim {
namespace {

/// Evaluation window (one TE interval, §4: e.g. 5 minutes).
constexpr double kWindowS = 300.0;

}  // namespace

FailureOutcome run_failure_scenario(topo::Graph& graph,
                                    const topo::TunnelSet& tunnels,
                                    const topo::TunnelOptions& tunnel_options,
                                    const tm::TrafficMatrix& traffic,
                                    te::Solver& solver,
                                    const FailureScenarioOptions& options,
                                    double recompute_override_s) {
  FailureOutcome out;
  out.solver_name = solver.name();

  te::TeProblem problem;
  problem.graph = &graph;
  problem.tunnels = &tunnels;
  problem.traffic = &traffic;

  // --- steady state before the failure ---
  te::TeSolution before = solver.solve(problem);
  out.pre_failure_satisfied = before.satisfied_ratio();

  // --- inject failures ---
  const auto events = topo::inject_link_failures(
      graph, options.num_failures, options.failure_seed);

  // Demand share riding tunnels that just died: that traffic is lost
  // until the recomputed config reaches the endpoints.
  double affected = 0.0;
  for (const auto& [pair, alloc] : before.pairs) {
    const auto& ts = tunnels.tunnels(pair.src, pair.dst);
    if (!alloc.flow_tunnel.empty()) {
      auto it = traffic.pairs().find(pair);
      if (it == traffic.pairs().end()) continue;
      for (std::size_t i = 0; i < it->second.size(); ++i) {
        const std::int32_t t = alloc.flow_tunnel[i];
        if (t >= 0 && static_cast<std::size_t>(t) < ts.size() &&
            !ts[t].alive(graph)) {
          affected += it->second[i].demand_gbps;
        }
      }
    } else {
      for (std::size_t t = 0;
           t < alloc.tunnel_alloc.size() && t < ts.size(); ++t) {
        if (alloc.tunnel_alloc[t] > 0.0 && !ts[t].alive(graph)) {
          affected += alloc.tunnel_alloc[t];
        }
      }
    }
  }
  const double total = traffic.total_demand_gbps();
  const double affected_ratio = total > 0.0 ? affected / total : 0.0;

  // --- recompute on the degraded topology ---
  topo::TunnelSet repaired = tunnels;  // keep the caller's set intact
  const util::Stopwatch repair_clock;
  topo::repair_tunnels(graph, repaired, tunnel_options);
  out.repair_s = repair_clock.elapsed_seconds();
  te::TeProblem degraded = problem;
  degraded.tunnels = &repaired;
  te::TeSolution after = solver.solve(degraded);
  out.post_failure_satisfied = after.satisfied_ratio();
  out.recompute_s = recompute_override_s >= 0.0
                        ? recompute_override_s
                        : out.repair_s + after.solve_time_s;
  out.outage_s = out.recompute_s + kSyncDelayS;

  // --- time-average over the window ---
  // During the outage the surviving share of the old allocation carries
  // traffic; after it, the recomputed allocation does.
  const double window = kWindowS;
  const double outage = std::min(out.outage_s, window);
  const double during =
      std::max(0.0, out.pre_failure_satisfied - affected_ratio);
  out.windowed_satisfied =
      (during * outage + out.post_failure_satisfied * (window - outage)) /
      window;

  topo::restore_failures(graph, events);
  return out;
}

}  // namespace megate::sim

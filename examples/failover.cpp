// Failover walkthrough: steady-state TE, then two fiber cuts. Each step
// is one control iteration (ctrl::ControlIteration: repair -> solve ->
// check -> publish), and the agents of the plan's real source instances
// pull the new config from the KV store within one poll interval — the
// Fig. 12 mechanism end to end.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "megate/ctrl/agent.h"
#include "megate/ctrl/iteration.h"
#include "megate/ctrl/kvstore.h"
#include "megate/sim/failure_sim.h"
#include "megate/te/megate_solver.h"
#include "megate/tm/endpoints.h"
#include "megate/topo/failures.h"
#include "megate/topo/generators.h"
#include "megate/util/table.h"

namespace {

using namespace megate;

/// Agent tick of the walkthrough's simulated clock, in seconds.
constexpr double kTickS = 0.5;

std::string ms(double seconds) {
  return util::Table::num(1e3 * seconds, 1) + " ms";
}

/// Runs one iteration, prints what it did layer by layer, then ticks the
/// fleet from `now_s` until every agent applied the plan (or a 60 s
/// horizon passes). Returns the simulated time the fleet converged.
double iterate_and_converge(const char* label, ctrl::ControlIteration& driver,
                            const te::TeProblem& problem,
                            topo::TunnelSet& tunnels,
                            ctrl::AgentFleet& fleet, double now_s) {
  te::CheckOptions copt;
  copt.require_flow_assignment = true;
  const ctrl::IterationResult it = driver.run(problem, tunnels, {}, copt);
  std::cout << label << ": "
            << util::Table::num(100 * it.report.solution.satisfied_ratio(), 1)
            << "% of demand satisfied, plan "
            << (it.check.ok ? "checked clean" : "REFUSED by the checker")
            << "\n  repair " << ms(it.repair_s) << ", solve "
            << ms(it.solve_s) << ", check " << ms(it.check_s) << ", publish "
            << ms(it.publish_s) << " (" << it.delta.upserts << " upserts, "
            << it.delta.erases << " erases, " << it.delta.bytes
            << " bytes); iteration " << ms(it.wall_s) << "\n";
  if (!it.check.ok) return -1.0;
  const std::size_t agents = fleet.agents().size();
  double t = now_s;
  while (fleet.at_version(it.delta.version) < agents && t < now_s + 60.0) {
    t += kTickS;
    fleet.tick(t);
  }
  std::cout << "  " << fleet.at_version(it.delta.version) << "/" << agents
            << " agents on v" << it.delta.version << " "
            << util::Table::num(t - now_s, 1)
            << " s after the publish (poll interval 10 s)\n";
  return fleet.at_version(it.delta.version) == agents ? t : -1.0;
}

}  // namespace

int main() {
  topo::GeneratorOptions gopt;
  gopt.seed = 5;
  topo::Graph wan = topo::make_topology(topo::TopologyKind::kDeltacom, gopt);
  const topo::TunnelOptions topt;  // every build and repair below
  topo::TunnelSet tunnels = topo::build_tunnels(wan, topt);
  auto layout = tm::generate_endpoints_with_total(wan, 1130, 0.8, 6);
  tm::TrafficOptions tmo;
  // ~0.1 of raw capacity: a flow crossing h links consumes h units, so
  // this loads the WAN to a realistic ~half of its routable capacity.
  tmo.target_total_gbps = tm::total_link_capacity_gbps(wan) * 0.1;
  tm::TrafficMatrix traffic = tm::generate_traffic(wan, layout, tmo, 7);

  te::TeProblem problem;
  problem.graph = &wan;
  problem.tunnels = &tunnels;
  problem.traffic = &traffic;
  te::MegaTeSolver solver;

  // --- the bottom-up control loop: KV store, driver, polling agents ------
  ctrl::KvStore store(2);
  ctrl::InProcessTransport db(&store);
  ctrl::ControlIteration driver(&db, solver, topt);
  ctrl::AgentOptions aopt;
  aopt.poll_interval_s = 10.0;
  const std::vector<std::uint64_t> instances = ctrl::source_instances(traffic);
  ctrl::AgentFleet fleet(instances, /*instances_per_agent=*/8, &db, aopt);
  std::cout << fleet.agents().size() << " host agents serve the plan's "
            << instances.size() << " source instances\n\n";

  double now = iterate_and_converge("Steady state", driver, problem, tunnels,
                                    fleet, 0.0);
  if (now < 0.0) return 1;

  // --- two fiber cuts -----------------------------------------------------
  auto events = topo::inject_link_failures(wan, 2, /*seed=*/99);
  std::cout << "\nInjected " << events.size()
            << " duplex link failures; links up: " << wan.num_links_up()
            << "/" << wan.num_links() << "\n";
  now = iterate_and_converge("Recomputed", driver, problem, tunnels, fleet,
                             now);
  if (now < 0.0) return 1;

  // --- the windowed cost of slow recomputation ----------------------------
  topo::restore_failures(wan, events);
  sim::FailureScenarioOptions fopt;
  fopt.num_failures = 2;
  auto fast = sim::run_failure_scenario(wan, tunnels, topt, traffic, solver,
                                        fopt);
  auto slow = sim::run_failure_scenario(wan, tunnels, topt, traffic, solver,
                                        fopt, /*recompute_override_s=*/100.0);
  std::cout << "\nWindowed satisfied demand over a 300 s TE interval:\n"
            << "  sub-second recompute (MegaTE): "
            << util::Table::num(100 * fast.windowed_satisfied, 1) << "%\n"
            << "  100 s recompute (NCFlow-class): "
            << util::Table::num(100 * slow.windowed_satisfied, 1) << "%\n";
  return 0;
}

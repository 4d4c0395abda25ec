// Failover walkthrough: steady-state TE, then two fiber cuts; MegaTE
// recomputes on the degraded topology and the bottom-up control loop
// (KV store + polling agents) converges every endpoint to the new config
// within one poll interval — the Fig. 12 mechanism end to end.

#include <iostream>

#include "megate/ctrl/agent.h"
#include "megate/ctrl/controller.h"
#include "megate/ctrl/kvstore.h"
#include "megate/sim/failure_sim.h"
#include "megate/te/megate_solver.h"
#include "megate/tm/endpoints.h"
#include "megate/topo/failures.h"
#include "megate/topo/generators.h"
#include "megate/util/stats.h"
#include "megate/util/table.h"

int main() {
  using namespace megate;

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

  // --- steady state ------------------------------------------------------
  te::TeSolution before = solver.solve(problem, {}).solution;
  std::cout << "Steady state: "
            << util::Table::num(100 * before.satisfied_ratio(), 1)
            << "% of demand satisfied ("
            << util::Table::num(before.solve_time_s, 2) << " s solve)\n";

  // --- two fiber cuts -----------------------------------------------------
  auto events = topo::inject_link_failures(wan, 2, /*seed=*/99);
  std::cout << "\nInjected " << events.size()
            << " duplex link failures; links up: " << wan.num_links_up()
            << "/" << wan.num_links() << "\n";

  topo::repair_tunnels(wan, tunnels, topt);  // re-run Yen where needed
  te::TeSolution after = solver.solve(problem, {}).solution;
  std::cout << "Recomputed: "
            << util::Table::num(100 * after.satisfied_ratio(), 1)
            << "% satisfied in " << util::Table::num(after.solve_time_s, 2)
            << " s — fast enough to react within the TE interval\n";

  // --- bottom-up convergence ---------------------------------------------
  ctrl::KvStore store(2);
  ctrl::InProcessTransport db(&store);
  ctrl::Controller controller(&db);
  controller.publish_solution(problem, after);
  std::cout << "\nPublished " << controller.entries_published()
            << " per-instance route tables at version " << store.version()
            << "\n";

  ctrl::AgentOptions aopt;
  aopt.poll_interval_s = 10.0;
  auto lags = ctrl::measure_sync_lags(db, /*n_agents=*/2000, aopt,
                                      /*publish_at=*/5.0, /*horizon=*/40.0,
                                      /*step=*/0.5);
  std::cout << "2000 agents converged; apply lag after publish: median "
            << util::Table::num(util::percentile(lags, 50), 1) << " s, p95 "
            << util::Table::num(util::percentile(lags, 95), 1)
            << " s, max " << util::Table::num(util::percentile(lags, 100), 1)
            << " s (eventual consistency within one poll interval)\n";

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

#pragma once
// One control-loop iteration (§3.2): repair the tunnels the topology
// lost, solve, check the plan, publish it as a delta into the TE
// database, and rebase the online allocator on it; agents then pull on
// their own clocks (AgentFleet). The chaos harness and examples/failover
// run every iteration through this driver. When the solver reports to a
// metrics registry, each layer is a span under one "ctrl.iteration" span
// (topo.repair_tunnels, the solver's own te.solve, te.check_solution,
// ctrl.publish_solution, te.online.rebase) and the time no layer
// accounts for lands in the "ctrl.iteration.unattributed_s" histogram.

#include <cstdint>

#include "megate/ctrl/controller.h"
#include "megate/ctrl/transport.h"
#include "megate/te/checker.h"
#include "megate/te/megate_solver.h"
#include "megate/te/online_allocator.h"
#include "megate/topo/tunnels.h"

namespace megate::ctrl {

/// What one publish wrote into the TE database.
struct PublishResult {
  Version version = 0;  ///< 0 when nothing was published
  std::uint64_t upserts = 0;
  std::uint64_t erases = 0;
  std::uint64_t bytes = 0;
};

/// What one iteration did, and each layer's wall time in seconds.
struct IterationResult {
  te::SolveReport report;
  te::CheckResult check;
  PublishResult delta;  ///< empty when the plan failed the check
  double repair_s = 0.0;
  double solve_s = 0.0;
  double check_s = 0.0;
  double publish_s = 0.0;
  double rebase_s = 0.0;
  double wall_s = 0.0;  ///< the whole iteration
};

class ControlIteration {
 public:
  /// Publishes through `db`, repairs with `repair` (the options the
  /// tunnels were built with) and rebases `allocator` when one is given;
  /// all three pointees must outlive the driver.
  ControlIteration(KvTransport* db, te::MegaTeSolver& solver,
                   const topo::TunnelOptions& repair,
                   te::OnlineAllocator* allocator = nullptr);

  /// Repairs `tunnels` (the set `problem.tunnels` points at) on
  /// `problem.graph`, solves per `ctx` and checks per `copt`; only a plan
  /// that passed the check is published and rebased on.
  IterationResult run(const te::TeProblem& problem, topo::TunnelSet& tunnels,
                      const te::SolveContext& ctx,
                      const te::CheckOptions& copt);

  /// Publishes a plan made between iterations (an online patch), so the
  /// next delta is taken against it.
  PublishResult publish(const te::TeProblem& problem,
                        const te::TeSolution& plan);

 private:
  Controller controller_;
  te::MegaTeSolver& solver_;
  topo::TunnelOptions repair_;
  te::OnlineAllocator* allocator_;
};

}  // namespace megate::ctrl

#pragma once
// Link-failure experiment (Fig. 12): when links fail, flows whose tunnels
// died lose service until the TE system has (a) recomputed the allocation
// and (b) synchronized the new configuration to the endpoints. MegaTE
// recomputes in under a second and synchronizes within the poll spread;
// NCFlow-class systems take ~100 s to recompute, so a larger share of the
// evaluation window is lost. The reported metric is time-averaged
// satisfied demand over the window (one 5-minute TE interval).

#include <cstdint>
#include <string>

#include "megate/te/types.h"
#include "megate/topo/failures.h"
#include "megate/topo/tunnels.h"

namespace megate::sim {

/// Endpoint sync delay after recompute (bottom-up poll spread): the
/// outage is the recompute time plus this.
inline constexpr double kSyncDelayS = 10.0;

struct FailureScenarioOptions {
  std::uint32_t num_failures = 2;
  std::uint64_t failure_seed = 7;
};

struct FailureOutcome {
  std::string solver_name;
  double pre_failure_satisfied = 0.0;   ///< ratio before the failure
  double post_failure_satisfied = 0.0;  ///< ratio of the recomputed TE
  double outage_s = 0.0;                ///< recompute + sync time
  /// Time-averaged satisfied ratio over the window: traffic on dead
  /// tunnels is lost during the outage, then follows the new allocation.
  double windowed_satisfied = 0.0;
  /// Fault-to-plan time: tunnel repair plus the re-solve, both measured
  /// (or the caller's override, which replaces both).
  double recompute_s = 0.0;
  double repair_s = 0.0;  ///< measured repair_tunnels time (always)
};

/// Runs the scenario for `solver`: solve, fail links, re-solve on the
/// degraded topology (tunnels repaired via repair_tunnels with
/// `tunnel_options`, the options `tunnels` was built with, so a repaired
/// pair gets as many tunnels as the build gave it), compute the
/// time-averaged satisfied demand. `recompute_override_s`, when >= 0,
/// replaces the measured recompute time (used to model the paper's
/// reported 100 s NCFlow recomputation on production-scale hardware).
/// The graph is restored before returning.
FailureOutcome run_failure_scenario(topo::Graph& graph,
                                    const topo::TunnelSet& tunnels,
                                    const topo::TunnelOptions& tunnel_options,
                                    const tm::TrafficMatrix& traffic,
                                    te::Solver& solver,
                                    const FailureScenarioOptions& options,
                                    double recompute_override_s = -1.0);

}  // namespace megate::sim

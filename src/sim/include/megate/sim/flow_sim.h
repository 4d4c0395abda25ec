#pragma once
// Flow-level latency evaluation of a TE solution (§6.1 "Packet latency"):
// each assigned endpoint flow experiences its tunnel's propagation delay
// plus a queueing penalty that grows with the utilization of the tunnel's
// most loaded link (an M/M/1-flavoured 0.5 ms * u/(1-u) per hop, with u
// capped at 0.98). For the non-TWAN topologies the paper counts hops
// instead; both metrics are produced.

#include <vector>

#include "megate/te/checker.h"
#include "megate/te/types.h"

namespace megate::sim {

struct FlowRecord {
  tm::QosClass qos = tm::QosClass::kClass2;
  double demand_gbps = 0.0;
  bool assigned = false;
  double latency_ms = 0.0;  ///< propagation + queueing (0 if unassigned)
  double hops = 0.0;
};

struct FlowSimResult {
  std::vector<FlowRecord> flows;

  /// Demand-weighted mean latency over assigned flows of class q (0=all).
  double mean_latency_ms(int qos_filter = 0) const;
  double mean_hops(int qos_filter = 0) const;
  double assigned_fraction() const;
};

/// Evaluates the solution. Requires per-flow tunnel assignments (run
/// assign_flows_by_hash first for fractional solvers).
FlowSimResult simulate_flows(const te::TeProblem& problem,
                             const te::TeSolution& sol);

}  // namespace megate::sim

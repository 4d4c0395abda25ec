#pragma once
// Multi-TE-period simulation (paper §8, "TE with application-level
// statistics"): demand evolves between periods; the controller must
// decide the next period's allocation from what it can know. Three
// knowledge models are compared:
//
//   kStale     — solve on the previous period's measurement (deployed
//                MegaTE behaviour, "weak coupling")
//   kPredicted — solve on a FlowPredictor estimate (EWMA)
//   kOracle    — solve on the period-start true demand (upper bound)
//
// Realized satisfaction: a flow assigned to a tunnel has a reservation
// equal to the demand the solver believed; it carries
// min(reservation, actual demand) of the actual traffic. Unpredicted or
// unassigned flows carry nothing.
//
// Every period solves cold on the caller's graph and tunnels: an
// incremental solve returns the same plan bit for bit
// (tests/incremental_test.cpp), so the outcomes would not change with it.
// Faults, mid-period churn and online patching are the chaos loop's job
// (fault/chaos.h), not this comparison's.

#include <cstdint>
#include <vector>

#include "megate/tm/traffic.h"
#include "megate/topo/tunnels.h"

namespace megate::sim {

enum class DemandKnowledge { kStale, kPredicted, kOracle };

const char* to_string(DemandKnowledge k) noexcept;

struct PeriodSimOptions {
  std::size_t periods = 8;
  /// Per-period multiplicative demand noise: factor = exp(N(0, sigma)).
  double jitter_sigma = 0.35;
  std::uint64_t seed = 1;
};

struct PeriodOutcome {
  std::size_t period = 0;
  double actual_total_gbps = 0.0;
  double carried_gbps = 0.0;
  double prediction_mape = 0.0;  ///< 0 for kOracle
  double solve_time_s = 0.0;

  double realized_satisfied() const noexcept {
    return actual_total_gbps > 0.0 ? carried_gbps / actual_total_gbps : 0.0;
  }
};

/// Evolves `base` over the configured periods and runs the MegaTE solver
/// under the given knowledge model. Deterministic in options.seed (the
/// demand evolution is identical across knowledge models for a fixed
/// seed, so outcomes are directly comparable).
std::vector<PeriodOutcome> run_period_simulation(
    const topo::Graph& graph, const topo::TunnelSet& tunnels,
    const tm::TrafficMatrix& base, DemandKnowledge knowledge,
    const PeriodSimOptions& options = {});

}  // namespace megate::sim

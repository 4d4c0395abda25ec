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
// Intra-period churn (ISSUE 9): PeriodSimOptions::churn generates a
// tm::DemandStream per period (seed mixed with the period index) against
// that period's actual matrix, so measured and believed demand diverge
// *within* a period, not just across boundaries. With `online` set, a
// te::OnlineAllocator patches the standing reservations per event
// (topping up / moving / shedding on residual capacity) and triggers an
// early mid-period full re-solve once drift crosses the configured
// threshold; without it the boundary solve simply goes stale against the
// churned truth.
//
// API note: there is one entry point, taking a mutable graph (faults
// strike it in place and it is restored before returning). Fault-free
// runs never mutate it. Every period solves cold: an incremental solve
// returns the same plan bit for bit (tests/incremental_test.cpp), so the
// outcomes would not change with it.

#include <cstdint>
#include <string>
#include <vector>

#include "megate/te/online_allocator.h"
#include "megate/tm/demand_stream.h"
#include "megate/tm/prediction.h"
#include "megate/tm/traffic.h"
#include "megate/topo/tunnels.h"

namespace megate::sim {

enum class DemandKnowledge { kStale, kPredicted, kOracle };

const char* to_string(DemandKnowledge k) noexcept;

/// Link failures striking between TE periods: `count` duplex links go down
/// at the start of period `period` and recover `duration_periods` later.
/// The solver sees the degraded topology (with repaired tunnels) for the
/// affected periods — demand evolution stays identical, so outcomes with
/// and without faults are directly comparable.
struct PeriodLinkFault {
  std::size_t period = 0;
  std::uint32_t count = 1;
  std::size_t duration_periods = 1;
  std::uint64_t seed = 7;
};

struct PeriodSimOptions {
  std::size_t periods = 8;
  /// Per-period multiplicative demand noise: factor = exp(N(0, sigma)).
  double jitter_sigma = 0.35;
  /// Deterministic per-flow trend (random walk drift), in log units.
  double drift_sigma = 0.08;
  std::uint64_t seed = 1;
  /// EWMA alpha for kPredicted.
  double ewma_alpha = 0.4;
  /// Mid-simulation link failures (empty = the classic fault-free run).
  std::vector<PeriodLinkFault> link_faults;
  /// Mid-period demand churn (disabled by default): the per-period
  /// DemandStream timeline. churn.seed is mixed with the period index so
  /// every period gets its own deterministic schedule over
  /// churn.horizon_s.
  tm::ChurnOptions churn;
  /// Patch reservations per churn event with a te::OnlineAllocator
  /// (rebased on every boundary solve) instead of letting the boundary
  /// solve go stale within the period. Ignored without churn.
  bool online = false;
  /// Allocator knobs for `online` (headroom, hop budget, drift-triggered
  /// early re-solve threshold). The metrics pointer is honoured.
  te::OnlineOptions online_options;
};

struct PeriodOutcome {
  std::size_t period = 0;
  double actual_total_gbps = 0.0;
  double carried_gbps = 0.0;
  double prediction_mape = 0.0;  ///< 0 for kOracle
  double solve_time_s = 0.0;
  /// Churn telemetry (all zero without PeriodSimOptions::churn).
  std::size_t churn_events = 0;
  double churn_delta_gbps = 0.0;  ///< sum of |demand movement| mid-period
  /// Online-allocator telemetry (all zero without `online`).
  double online_admitted_gbps = 0.0;
  double online_shed_gbps = 0.0;
  std::size_t online_resolves = 0;  ///< drift-triggered mid-period solves

  double realized_satisfied() const noexcept {
    return actual_total_gbps > 0.0 ? carried_gbps / actual_total_gbps : 0.0;
  }
};

/// The one entry point: evolves `base` over the configured periods and
/// runs the MegaTE solver under the given knowledge model. Deterministic
/// in options.seed / options.churn.seed (the demand evolution is
/// identical across knowledge models for a fixed seed, so outcomes are
/// directly comparable). Faults strike `graph` in place (with tunnels
/// repaired for the degraded periods); the graph is restored before
/// returning.
std::vector<PeriodOutcome> run_period_simulation(
    topo::Graph& graph, const topo::TunnelSet& tunnels,
    const tm::TrafficMatrix& base, DemandKnowledge knowledge,
    const PeriodSimOptions& options = {});

}  // namespace megate::sim

#pragma once
// Online intra-interval TE: patching the standing solution between full
// solves (ISSUE 9 tentpole).
//
// MegaTE re-solves at interval boundaries; a tm::DemandStream churns the
// matrix *between* those boundaries. The OnlineAllocator keeps the last
// full TeSolution standing and patches it per DemandEvent instead of
// re-running the two-stage solver:
//
//   - every admitted flow carries a *reservation* (<= its current
//     demand); the data plane / policing view carries
//     min(reservation, demand), so a reservation is exactly the
//     satisfied demand the allocator vouches for;
//   - shrinking flows release residual capacity immediately; departures
//     release everything and unassign (the flow slot stays, demand 0 —
//     DemandStream's stable-index contract);
//   - growing and newly arrived flows are admitted onto residual tunnel
//     capacity: first topped up on their standing tunnel, then (for
//     whole flows) moved to another alive tunnel with room, then
//     partially admitted, and only then shed — loudly, through the
//     PatchResult and the "te.online.shed_*" metrics;
//   - only tunnels alive on the current graph take reservations; the SR
//     hop budget needs no check here, because every tunnel of a
//     topo::TunnelSet fits the set's budget (the plan/encap contract is
//     the tunnel set's to keep);
//   - changes inside one event are processed in QoS priority order
//     (class 1 first), so scarce residual capacity goes to the highest
//     class. Standing lower-class reservations are never preempted; that
//     is the full solver's job at the next boundary;
//   - cumulative |demand movement| since the last rebase is tracked as a
//     drift fraction; once it crosses resolve_drift_fraction, every
//     PatchResult recommends an early full re-solve.
//
// Invariants (enforced by tests/online_test.cpp):
//   I1  sum of reservations over any link <= its capacity (a caller that
//       plans with headroom hands in a derated graph, as the chaos loop
//       does);
//   I2  no reservation on a dead tunnel;
//   I3  0 <= reservation[i] <= demand[i] for every flow;
//   I4  solution().satisfied_gbps == sum of all reservations, and
//       tunnel_alloc is the per-tunnel sum of its flows' reservations.
//
// apply()/rebase()/snapshot() are serialized on an internal mutex so a
// publisher thread can snapshot the standing solution while the event
// thread patches (the TSan suite exercises exactly that interleaving).

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "megate/te/types.h"
#include "megate/tm/demand_stream.h"

namespace megate::obs {
class MetricsRegistry;
}

namespace megate::te {

struct OnlineOptions {
  /// Once cumulative |demand change| since rebase exceeds this fraction
  /// of the rebase-time total demand, PatchResult::resolve_recommended
  /// turns on (<= 0 disables the trigger).
  double resolve_drift_fraction = 0.25;
  /// "te.online.*" counters/gauges land here; null = no metrics.
  obs::MetricsRegistry* metrics = nullptr;
};

/// What one apply() call did.
struct PatchResult {
  double admitted_gbps = 0.0;  ///< new reservation added by this event
  double released_gbps = 0.0;  ///< reservation released (shrink/departure)
  double shed_gbps = 0.0;      ///< demand growth that found no room
  std::size_t flows_patched = 0;  ///< flows whose reservation changed
  std::size_t flows_moved = 0;    ///< flows re-homed to another tunnel
  std::size_t flows_shed = 0;     ///< flows left (partially) unsatisfied
  /// Cumulative drift since rebase, as a fraction of rebase-time demand.
  double drift_fraction = 0.0;
  /// True once drift crossed OnlineOptions::resolve_drift_fraction: the
  /// caller should schedule a full re-solve at its next opportunity.
  bool resolve_recommended = false;
};

class OnlineAllocator {
 public:
  explicit OnlineAllocator(OnlineOptions options = {})
      : options_(options) {}

  /// Adopts a fresh full solve as the standing solution. `problem` must
  /// reference the graph/tunnels/matrix the solution was solved against
  /// (the matrix in its un-churned, solve-time state); the graph and
  /// tunnel set must outlive the allocator's use (the matrix is only
  /// read during rebase). The solution needs per-flow assignments
  /// (MegaTeSolver output) — fractional-only pairs are not patchable and
  /// their usage would be invisible, so they are rejected via
  /// std::invalid_argument.
  void rebase(const TeProblem& problem, const TeSolution& solution);

  /// Patches the standing solution for one event (which the caller has
  /// applied / will apply to the believed matrix via
  /// tm::DemandStream::apply — the allocator only consumes the recorded
  /// before/after values). Events must arrive in timeline order.
  PatchResult apply(const tm::DemandEvent& event);

  /// True after a successful rebase.
  bool has_base() const noexcept;

  /// Copy of the standing (patched) solution — safe to call from another
  /// thread while events are applied.
  TeSolution snapshot() const;

  /// Copy of the per-pair, flow-index-aligned reservations (Gbps), under
  /// snapshot() semantics. The policing view in chaos carries
  /// min(reservation, demand) per flow.
  std::unordered_map<topo::SitePair, std::vector<double>,
                     topo::SitePairHash>
  reservations_snapshot() const;

  /// Cumulative drift since the last rebase (fraction of base demand).
  double drift_fraction() const;

 private:
  /// Residual capacity (Gbps) left on every link after all standing
  /// reservations, against link capacity.
  double bottleneck(const std::vector<topo::EdgeId>& links) const;
  void reserve_on(const std::vector<topo::EdgeId>& links, double gbps);

  OnlineOptions options_;
  mutable std::mutex mu_;
  const topo::Graph* graph_ = nullptr;
  const topo::TunnelSet* tunnels_ = nullptr;
  TeSolution sol_;
  std::unordered_map<topo::SitePair, std::vector<double>,
                     topo::SitePairHash>
      reserved_;
  std::vector<double> residual_;
  double base_total_gbps_ = 0.0;
  double drift_gbps_ = 0.0;
  double shed_total_gbps_ = 0.0;
  bool has_base_ = false;
};

}  // namespace megate::te

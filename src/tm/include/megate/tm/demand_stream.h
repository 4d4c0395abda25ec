#pragma once
// Streaming demand churn between TE solves (ISSUE 9 tentpole).
//
// MegaTE re-solves only at interval boundaries, but cloud demand churns
// continuously: flows scale with their applications, flash crowds slam a
// site pair, diurnal swings breathe across the whole matrix, and
// endpoints arrive and depart mid-interval. A DemandStream is the typed,
// seeded, deterministic timeline of those changes: a list of DemandEvents,
// each carrying the exact per-flow before/after demands it applies, so
// that replaying the same stream over the same base matrix is bitwise
// reproducible — the streaming analog of fault::FaultPlan.
//
// Contract with consumers (te::OnlineAllocator, sim, the chaos loop):
//   - events must be applied in timeline order (apply() mutates a matrix
//     in place; generation already simulated the application, so the
//     recorded before/after values are exact);
//   - flow indices are *stable*: an event only rewrites demands in place
//     or appends new flows at the tail of a pair's flow vector. Departed
//     flows stay as zero-demand placeholders instead of being erased, so
//     a standing TeSolution's index-aligned flow_tunnel assignments keep
//     meaning mid-interval;
//   - event ids are the ordinal in the timeline; the log line of every
//     event (to_log) is part of the deterministic regression surface.

#include <cstdint>
#include <string>
#include <vector>

#include "megate/tm/traffic.h"
#include "megate/topo/tunnels.h"

namespace megate::obs {
class MetricsRegistry;
}

namespace megate::tm {

enum class DemandEventKind : std::uint8_t {
  kFlowScaleUp,        ///< one flow's demand multiplied by > 1
  kFlowScaleDown,      ///< one flow's demand multiplied by < 1
  kFlashCrowd,         ///< every flow of one site pair scaled up at once
  kDiurnalRamp,        ///< the whole matrix scaled by one sinusoid step
  kEndpointArrival,    ///< a new endpoint appears with fresh flows
  kEndpointDeparture,  ///< an endpoint's flows drop to zero demand
};

const char* to_string(DemandEventKind k) noexcept;

/// One flow's demand transition inside an event. `flow_index` addresses
/// the pair's flow vector *after* the event is applied (appends land at
/// the recorded tail index), so consumers can patch index-aligned state
/// in O(1). before_gbps == 0 marks a new flow; after_gbps == 0 a
/// departed one.
struct FlowChange {
  topo::SitePair pair;
  std::uint32_t flow_index = 0;
  EndpointId src = 0;
  EndpointId dst = 0;
  QosClass qos = QosClass::kClass2;
  double before_gbps = 0.0;
  double after_gbps = 0.0;
};

struct DemandEvent {
  std::uint64_t id = 0;  ///< ordinal in the timeline
  double time_s = 0.0;
  DemandEventKind kind = DemandEventKind::kFlowScaleUp;
  std::vector<FlowChange> changes;

  /// Sum of |after - before| over the changes: how much demand moved.
  double delta_gbps() const noexcept;
  /// Net demand change (after - before summed; negative on departures).
  double net_gbps() const noexcept;
  /// "t=12.300s churn#4 flash-crowd pair=3->7 flows=12 delta=+8.40gbps" —
  /// the deterministic log line (feeds the chaos fingerprint).
  std::string to_log() const;
};

/// Seeded churn schedule knobs. Event counts are per horizon; all zero
/// (the default) means no churn, which every integration point treats as
/// "feature off" — existing golden fingerprints stay valid.
struct ChurnOptions {
  std::uint64_t seed = 1;
  /// Events are scheduled inside [0, horizon_s).
  double horizon_s = 300.0;

  std::size_t flow_scale_events = 0;  ///< split ~evenly between up/down
  std::size_t flash_crowds = 0;
  /// Diurnal swing (±30%) discretized into this many kDiurnalRamp steps
  /// spread evenly over the horizon (0 = no diurnal component).
  std::size_t diurnal_steps = 0;
  /// Each arrival brings 3 flows at the matrix's mean live demand.
  std::size_t endpoint_arrivals = 0;
  std::size_t endpoint_departures = 0;

  /// kFlowScaleUp multiplies by uniform[scale_up_min, scale_up_max];
  /// kFlowScaleDown divides by a draw from the same range.
  double scale_up_min = 1.5;
  double scale_up_max = 3.0;
  /// kFlashCrowd multiplies every flow of the chosen pair by this.
  double flash_crowd_multiplier = 3.0;

  bool enabled() const noexcept {
    return flow_scale_events + flash_crowds + diurnal_steps +
               endpoint_arrivals + endpoint_departures >
           0;
  }
};

/// The pre-computed, deterministic event timeline. Events are sorted by
/// (time, id); generation simulates application against a working copy of
/// the base matrix, so before/after demands compose exactly across
/// events.
class DemandStream {
 public:
  /// Generates the timeline for `base`. Deterministic in (base, options):
  /// the same inputs produce a bitwise-identical event list.
  static DemandStream generate(const TrafficMatrix& base,
                               const ChurnOptions& options);

  const std::vector<DemandEvent>& events() const noexcept { return events_; }
  bool empty() const noexcept { return events_.empty(); }

  /// Applies one event to `m` in place (stable flow indices; see the
  /// header contract). Events must be applied in timeline order against
  /// the matrix the stream was generated for. Throws std::runtime_error
  /// when the matrix visibly diverged from the recorded timeline (wrong
  /// flow count at an append index).
  static void apply(const DemandEvent& event, TrafficMatrix& m);

  /// Replay cursor: returns the next event with time_s <= t and advances,
  /// or nullptr when none is due. reset() rewinds to the first event.
  const DemandEvent* next_due(double t) noexcept;
  void reset() noexcept { cursor_ = 0; }
  std::size_t cursor() const noexcept { return cursor_; }

  /// Bumps the "tm.churn.*" counters for one event (events, per-kind
  /// count, flows_changed, and the gbps-delta histogram). No-op on null.
  static void note_event(obs::MetricsRegistry* metrics,
                         const DemandEvent& event);

  /// Order-insensitive bitwise fingerprint of a matrix (FNV-1a over the
  /// per-pair order-sensitive flow fingerprints, combined commutatively):
  /// the replay-determinism tests compare final matrices through this.
  static std::uint64_t fingerprint(const TrafficMatrix& m);

 private:
  std::vector<DemandEvent> events_;
  std::size_t cursor_ = 0;
};

}  // namespace megate::tm

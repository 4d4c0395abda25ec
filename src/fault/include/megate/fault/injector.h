#pragma once
// Drives a FaultPlan against live control-plane components.
//
// The injector owns the clock-facing half of the chaos machinery: a
// single-threaded loop calls advance_to(now) with monotonically
// increasing times; events whose start passed are activated (shard taken
// down, duplex link failed, drop/stale window opened) and events whose
// end passed are reverted. Side effects go through the bound components'
// public APIs — KvStore::set_shard_up, Graph::set_link_state — and
// through the ctrl::FaultHooks interface for per-pull decisions, so
// production code carries no chaos-specific branches beyond the hook seam.
//
// Determinism: activation order is fixed by the plan's sort; per-pull
// drop decisions come from an Rng forked off the plan seed and are drawn
// in agent-iteration order, which the chaos loop keeps deterministic. The
// textual event log is therefore identical across runs of the same seed.

#include <cstdint>
#include <string>
#include <vector>

#include "megate/ctrl/fault_hooks.h"
#include "megate/ctrl/telemetry.h"
#include "megate/ctrl/transport.h"
#include "megate/fault/fault_plan.h"
#include "megate/topo/graph.h"
#include "megate/util/rng.h"

namespace megate::fault {

class FaultInjector final : public ctrl::FaultHooks {
 public:
  struct Bindings {
    /// Shard crashes land here: KvStore::set_shard_up in process, an
    /// admin frame or a real process kill/restart over TCP — whatever
    /// the bound transport maps the fault seam onto.
    ctrl::KvTransport* store = nullptr;
    topo::Graph* graph = nullptr;                ///< link failures
    ctrl::ControlCounters* counters = nullptr;  ///< stale-read counts
  };

  FaultInjector(const FaultPlan& plan, Bindings bindings);

  /// Activates/deactivates events due at `now_s`. Must be called with
  /// non-decreasing times from a single thread.
  void advance_to(double now_s);

  /// True while at least one window-style fault is active.
  bool faults_active() const noexcept { return !active_.empty(); }
  /// True once a link failed or recovered since the last call; the chaos
  /// loop uses this to trigger an immediate recompute (the paper's <1 s
  /// reaction). Clears the flag.
  bool take_topology_changed() noexcept;

  /// Chronological, deterministic record of every activation/deactivation.
  const std::vector<std::string>& event_log() const noexcept { return log_; }

  // --- ctrl::FaultHooks ---------------------------------------------------
  bool drop_pull(std::uint64_t instance_id) override;
  ctrl::Version observed_version(std::uint64_t instance_id,
                                 ctrl::Version actual) override;

 private:
  struct Active {
    FaultEvent event;
    /// Resolved duplex link (kLinkFailure only).
    topo::EdgeId forward = topo::kInvalidEdge;
    topo::EdgeId reverse = topo::kInvalidEdge;
  };

  void activate(const FaultEvent& e);
  void deactivate(const Active& a);
  void log_event(const char* what, const FaultEvent& e);

  FaultPlan plan_;
  Bindings bind_;
  /// Duplex pairs of the bound graph, (forward, reverse), id-ascending.
  std::vector<std::pair<topo::EdgeId, topo::EdgeId>> duplex_;
  std::size_t next_event_ = 0;
  std::vector<Active> active_;
  std::vector<std::string> log_;
  double now_s_ = 0.0;
  bool topology_changed_ = false;
  util::Rng drop_rng_;
};

}  // namespace megate::fault

#pragma once
// The endpoint agent of the bottom-up control loop (§3.2, Fig. 4b).
//
// Each agent polls the TE database's version with a cheap short-lived
// query; only when the version moved does it pull its route entries and
// install them into the host stack. To keep database load flat, the fleet
// is divided over the spread interval (§3.2: "each part initiates queries
// asynchronously during a specific time period, e.g. 10 seconds") — an
// agent's poll phase is a deterministic hash of its id.
//
// A host runs many instances (VMs/containers); one agent serves them all.
// A pull fetches every instance's entry — either per key (try_get loop)
// or, with AgentOptions::batch_pull, as one KvStore::multi_get returning
// a single consistent (version, values) cut. Application is
// all-or-nothing: if any entry's shard is down the whole pull fails and
// every instance keeps its last-good table, so batched and per-key pulls
// are behaviourally equivalent in the deterministic harness (the
// batched-pull property suite asserts fingerprint equality).
//
// Applying costs what changed: the agent keeps each instance's last
// applied raw entry, and an entry that arrives unchanged is neither
// decoded nor written to the host stack. A delta publish touches a few
// instances out of a host's many, so most of a pull's entries are
// skipped.
//
// Failure behaviour (the eventual-consistency half of §3.2): when a pull
// is dropped in flight or a shard is down, the agent keeps its last-good
// route tables — traffic keeps flowing on the previous config — and
// retries after a short backoff instead of waiting a full poll interval.
// After max_pull_retries consecutive failures it returns to the normal
// poll cadence (the database will still be there next interval).

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "megate/ctrl/controller.h"
#include "megate/ctrl/fault_hooks.h"
#include "megate/ctrl/kvstore.h"
#include "megate/ctrl/telemetry.h"
#include "megate/ctrl/transport.h"
#include "megate/dataplane/host_stack.h"
#include "megate/tm/traffic.h"

namespace megate::ctrl {

struct AgentOptions {
  double poll_interval_s = 10.0;  ///< version-check period
  /// Fleet phase-spreading window; 0 (default) means "one poll interval",
  /// which spreads the fleet's queries evenly over the polling period.
  double spread_interval_s = 0.0;
  /// Consecutive fast retries after a failed pull before falling back to
  /// the normal poll cadence.
  std::uint32_t max_pull_retries = 3;
  /// Delay before a retry poll (must be > 0; clamped to 1 ms).
  double retry_backoff_s = 1.0;
  /// Pull all instance entries in one KvStore::multi_get (one consistent
  /// snapshot, one query round-trip) instead of a per-key try_get loop.
  bool batch_pull = false;
  /// Failure-injection seams; null = production behaviour (no faults).
  FaultHooks* fault_hooks = nullptr;
  /// Shared health counters; null = don't count.
  ControlCounters* counters = nullptr;
  /// Observability registry; null = no spans/histograms. When set, each
  /// pull's wall-clock latency lands in the "ctrl.agent.pull.seconds"
  /// histogram and each pull attempt's key count in
  /// "ctrl.agent.pull.batch_size" (shared across all bound agents).
  obs::MetricsRegistry* metrics = nullptr;
};

class EndpointAgent {
 public:
  /// Host agent serving `instance_ids` (must be non-empty; the first id
  /// is the primary — it keys the poll phase and the fault hooks).
  /// `stack` may be null (pure control-plane simulations). The transport
  /// may be an InProcessTransport over a KvStore or a TCP client to real
  /// shardd processes — the agent cannot tell the difference, by design.
  /// `db` must outlive the agent.
  EndpointAgent(std::vector<std::uint64_t> instance_ids, KvTransport* db,
                dataplane::HostStack* stack, AgentOptions options = {});
  EndpointAgent(std::uint64_t instance_id, KvTransport* db,
                dataplane::HostStack* stack, AgentOptions options = {});

  /// Drives the agent to simulation time `now_s`; polls whenever due.
  void tick(double now_s);

  /// One pull attempt covering every instance: fetch all entries
  /// (batched or per-key per AgentOptions::batch_pull), then apply
  /// all-or-nothing. Returns false when the pull was dropped, any shard
  /// was unavailable, or a batched read could not get a consistent cut —
  /// every instance then keeps its last-good table.
  bool try_pull_batch();

  /// Primary instance id (first of instance_ids()).
  std::uint64_t instance_id() const noexcept { return ids_.front(); }
  const std::vector<std::uint64_t>& instance_ids() const noexcept {
    return ids_;
  }
  Version applied_version() const noexcept { return applied_; }
  /// Simulation time the latest config was applied (-1 if never).
  double last_apply_time_s() const noexcept { return last_apply_s_; }
  /// The primary instance's route table. During a pull failure this is
  /// the last-good table, never a torn state.
  const std::vector<RouteEntry>& routes() const noexcept {
    return routes_.front();
  }
  /// Route table of one managed instance (throws if not managed).
  const std::vector<RouteEntry>& routes_for(std::uint64_t instance_id) const;
  /// Hops towards `dst_site` for the primary instance (exact match, then
  /// wildcard; empty if none).
  const std::vector<std::uint32_t>& hops_for(std::uint32_t dst_site) const;
  /// Hops towards `dst_site` for one managed instance.
  const std::vector<std::uint32_t>& hops_for(std::uint64_t instance_id,
                                             std::uint32_t dst_site) const;
  std::uint64_t polls() const noexcept { return polls_; }
  /// Consecutive failed pulls since the last success (0 when healthy).
  std::uint32_t failed_pulls() const noexcept { return failed_pulls_; }

 private:
  std::size_t index_of(std::uint64_t instance_id) const;
  /// Installs one instance's freshly pulled entry (kOk) or clears its
  /// table (kMiss: the controller erased the entry — no assigned flows).
  /// An entry equal to the last applied one is skipped.
  void apply_entry(std::size_t idx, GetStatus status, std::string value);

  std::vector<std::uint64_t> ids_;
  std::vector<std::string> keys_;  ///< path_key(ids_[i]), precomputed
  KvTransport* db_;
  dataplane::HostStack* stack_;
  AgentOptions options_;
  double next_poll_s_;
  Version applied_ = 0;
  double last_apply_s_ = -1.0;
  std::vector<std::vector<RouteEntry>> routes_;  ///< parallel to ids_
  /// Raw entry value behind routes_[i]; nullopt when no entry is applied
  /// (never pulled, or erased by the controller).
  std::vector<std::optional<std::string>> raw_;
  std::uint64_t polls_ = 0;
  std::uint32_t failed_pulls_ = 0;
  obs::Histogram* pull_latency_ = nullptr;  ///< stable registry reference
  obs::Histogram* pull_batch_size_ = nullptr;
};

/// The agents of a control loop: one host agent per consecutive chunk of
/// `instances_per_agent` (>= 1) ids of the ascending, duplicate-free
/// `instance_ids`, all polling `db`. Agents tick in id order, so the
/// fault hooks' seeded draws repeat run to run.
class AgentFleet {
 public:
  AgentFleet(const std::vector<std::uint64_t>& instance_ids,
             std::size_t instances_per_agent, KvTransport* db,
             const AgentOptions& options);

  void tick(double now_s);
  /// Agents whose applied version is `v`.
  std::size_t at_version(Version v) const;
  /// The agent serving `instance_id`; null when none does.
  const EndpointAgent* agent_of(std::uint64_t instance_id) const;
  const std::vector<EndpointAgent>& agents() const noexcept {
    return agents_;
  }

 private:
  std::vector<EndpointAgent> agents_;
  std::unordered_map<std::uint64_t, std::size_t> agent_index_;
};

/// Source instances of `traffic`'s flows, ascending and unique: the ids
/// whose route tables the controller publishes.
std::vector<std::uint64_t> source_instances(const tm::TrafficMatrix& traffic);

/// Convergence experiment: agents polling the database behind `db`,
/// each serving `instances_per_agent` consecutive instance ids out of
/// `n_instances`; a publish of all entries happens at `publish_at_s`;
/// returns each *instance's* apply lag (seconds after the publish). The
/// maximum is the eventual-consistency window the paper's §8 discussion
/// quotes ("several seconds"). Works identically over the in-process
/// store and a TCP transport (the transport-differential suite asserts
/// the lag distributions are equal).
std::vector<double> measure_sync_lags(KvTransport& db,
                                      std::size_t n_instances,
                                      const AgentOptions& options,
                                      double publish_at_s, double horizon_s,
                                      double tick_step_s,
                                      std::size_t instances_per_agent = 1);

}  // namespace megate::ctrl

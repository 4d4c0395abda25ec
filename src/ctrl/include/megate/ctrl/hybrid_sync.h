#pragma once
// Hybrid TE-configuration synchronization (paper §8, "Hybrid approach on
// TE configuration synchronization"): the pure bottom-up loop leaves a
// several-second window after a failure in which endpoints run stale
// configs. The paper observes that "a small part of the flows account
// for most of the network traffic", so a hybrid keeps *persistent push
// connections* for the heavy-traffic instances (instant updates) and the
// cheap polling pull for the long tail.
//
// This module plans such a split from a traffic matrix: which source
// instances get a persistent connection, what that costs on the
// controller (via the calibrated sync cost model / ConnectionManager
// constants), and what the traffic-weighted expected staleness becomes.

#include <cstdint>
#include <vector>

#include "megate/ctrl/sync_model.h"
#include "megate/obs/metrics.h"
#include "megate/tm/traffic.h"

namespace megate::ctrl {

/// Push latency over an established persistent connection.
inline constexpr double kPushLatencyS = 0.1;

struct HybridSyncOptions {
  /// Give persistent connections to the smallest set of source instances
  /// covering at least this share of total traffic (0 = pure bottom-up,
  /// 1 = pure top-down).
  double heavy_traffic_share = 0.9;
  /// Polling endpoints apply a new config after on average half the poll
  /// interval (uniform phase), worst case a full interval.
  double poll_interval_s = 10.0;
  /// Observability registry; null = no spans/gauges. Planning time lands
  /// in the "ctrl.hybrid_sync.plan" span and the plan's headline numbers
  /// (persistent/polling split, coverage, staleness) in gauges.
  obs::MetricsRegistry* metrics = nullptr;
};

struct HybridSyncPlan {
  /// Source instances that get a persistent connection (heaviest first).
  std::vector<std::uint64_t> persistent_instances;
  std::uint64_t polling_instances = 0;
  /// Share of total traffic actually covered by the persistent set.
  double covered_traffic_share = 0.0;
  /// Controller-side resources: persistent connections at the measured
  /// per-connection cost, plus the flat bottom-up core for the rest.
  SyncResources resources;
  /// TE-database query rate of the polling tail (polling instances
  /// spread over kSpreadIntervalS).
  double db_queries_per_s = 0.0;
  /// Traffic-weighted mean config staleness after an urgent update.
  double mean_staleness_s = 0.0;
  /// Staleness of the slowest (pure-polling) traffic.
  double worst_staleness_s = 0.0;
};

/// Plans the hybrid split for `traffic` under the sync cost model
/// (sync_model.h).
HybridSyncPlan plan_hybrid_sync(const tm::TrafficMatrix& traffic,
                                const HybridSyncOptions& options = {});

}  // namespace megate::ctrl

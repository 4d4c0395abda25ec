#pragma once
// Production-style scenarios (§2.1 Fig. 2 and §7 Figs. 15-17).
//
// The Tencent measurements cannot be replayed directly; what they
// demonstrate is a *mechanism*: conventional TE five-tuple-hashes each
// connection onto whichever tunnel the aggregate MCF split selects,
// regardless of QoS, while MegaTE pins every instance flow to the tunnel
// its class needs. These scenarios reproduce that mechanism on a WAN
// segment with three tunnel profiles (fast/expensive, slow/available,
// cheap/lossy) using the *actual* data-plane ECMP hash from
// megate::dataplane::Router.

#include <cstdint>
#include <string>
#include <vector>

#include "megate/tm/traffic.h"

namespace megate::sim {

/// One pre-established tunnel between the scenario's site pair.
struct TunnelProfile {
  std::string name;
  double latency_ms = 0.0;
  double availability = 0.9999;  ///< long-run fraction of time up
  double cost_per_gbps = 1.0;    ///< monthly $ per Gbps carried
  /// Share of aggregate (QoS-blind) traffic the conventional MCF split
  /// puts on this tunnel; shares sum to 1.
  double conventional_share = 0.0;
};

/// An application as §7 describes them (App 1-9).
struct AppProfile {
  std::string name;
  tm::QosClass qos = tm::QosClass::kClass2;
  std::uint32_t connections = 16;   ///< concurrent five-tuple flows
  double demand_gbps = 1.0;
};

struct ProductionScenario {
  std::vector<TunnelProfile> tunnels;

  /// The calibrated three-tunnel segment used by the Figs. 15-17 benches.
  static ProductionScenario default_scenario();

  /// Tunnel index MegaTE pins a class to: QoS-1 -> lowest latency,
  /// QoS-2 -> best availability among the rest, QoS-3 -> cheapest.
  std::size_t megate_tunnel_for(tm::QosClass qos) const;

  /// Mean tunnel latency under conventional hashing with `connections`
  /// independent five-tuples (seeded, uses the data-plane ECMP hash).
  double conventional_latency_ms(std::uint32_t connections,
                                 std::uint64_t seed) const;

  /// Picks the tunnel a single five-tuple lands on conventionally:
  /// ECMP hash into buckets proportional to conventional_share.
  std::size_t hash_tunnel(std::uint64_t flow_id, std::uint64_t seed) const;
};

// --- Fig. 2: conventional TE latency spread -----------------------------

struct PairLatencyStats {
  std::string pair_name;
  double p5 = 0, p25 = 0, p50 = 0, p75 = 0, p95 = 0;
  std::vector<double> samples_ms;
};

/// One day of 5-minute latency samples for `num_pairs` instance pairs
/// under conventional hashing: connections churn (new source ports), so
/// pairs re-hash between the 20 ms and 42 ms tunnels over time.
std::vector<PairLatencyStats> conventional_latency_day(
    const ProductionScenario& scenario, std::size_t num_pairs,
    std::uint64_t seed);

// --- Fig. 15: latency reductions per app --------------------------------

struct AppLatencyResult {
  std::string app;
  double conventional_ms = 0.0;
  double megate_ms = 0.0;
  double reduction_pct = 0.0;
};

std::vector<AppLatencyResult> evaluate_app_latency(
    const ProductionScenario& scenario, const std::vector<AppProfile>& apps,
    std::uint64_t seed);

/// The five time-sensitive applications of Fig. 15.
std::vector<AppProfile> fig15_apps();

// --- Fig. 16: monthly availability --------------------------------------

struct AvailabilityPoint {
  std::string month;
  bool megate_deployed = false;
  double app6_availability = 0.0;  ///< QoS-1, requirement 99.99%
  double app7_availability = 0.0;  ///< QoS-3, requirement 99%
};

/// Oct'22 - Mar'23 with MegaTE deployed from Dec'22 (the paper's rollout).
std::vector<AvailabilityPoint> evaluate_availability(
    const ProductionScenario& scenario, std::uint64_t seed);

// --- Fig. 17: monthly cost ------------------------------------------------

struct CostPoint {
  std::string month;
  bool megate_deployed = false;
  double app8_cost = 0.0;  ///< online gaming, QoS-1
  double app9_cost = 0.0;  ///< bulk transfer, QoS-3
};

std::vector<CostPoint> evaluate_cost(const ProductionScenario& scenario,
                                     std::uint64_t seed);

}  // namespace megate::sim

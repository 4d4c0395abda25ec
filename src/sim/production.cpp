#include "megate/sim/production.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "megate/dataplane/router.h"
#include "megate/util/rng.h"
#include "megate/util/stats.h"

namespace megate::sim {

using dataplane::FiveTuple;
using dataplane::Router;

ProductionScenario ProductionScenario::default_scenario() {
  // Calibrated against the paper's reference points:
  //  - Fig. 2: conventional latency clusters around 20 ms and 42 ms.
  //  - Fig. 16: conventional App 6 availability ~99.988%; MegaTE pins it
  //    to the premium path (>= 99.995%); App 7 rides the ~99% path.
  //  - Fig. 17: the bulk path costs half of the premium path (-50%).
  ProductionScenario s;
  s.tunnels = {
      {"premium-low-latency", 20.0, 0.99997, 3.0, 0.55},
      {"protected-long-haul", 42.0, 0.99990, 2.4, 0.44},
      {"economy-bulk", 30.0, 0.99000, 1.5, 0.01},
  };
  return s;
}

std::size_t ProductionScenario::megate_tunnel_for(tm::QosClass qos) const {
  std::size_t best = 0;
  switch (qos) {
    case tm::QosClass::kClass1:
      for (std::size_t i = 1; i < tunnels.size(); ++i) {
        if (tunnels[i].latency_ms < tunnels[best].latency_ms) best = i;
      }
      return best;
    case tm::QosClass::kClass2: {
      // Best availability excluding the premium tunnel when possible, so
      // class 1 keeps headroom on the fast path.
      const std::size_t fast = megate_tunnel_for(tm::QosClass::kClass1);
      std::size_t pick = fast;
      double best_avail = -1.0;
      for (std::size_t i = 0; i < tunnels.size(); ++i) {
        if (i == fast && tunnels.size() > 1) continue;
        if (tunnels[i].availability > best_avail) {
          best_avail = tunnels[i].availability;
          pick = i;
        }
      }
      return pick;
    }
    case tm::QosClass::kClass3:
      for (std::size_t i = 1; i < tunnels.size(); ++i) {
        if (tunnels[i].cost_per_gbps < tunnels[best].cost_per_gbps) best = i;
      }
      return best;
  }
  return best;
}

std::size_t ProductionScenario::hash_tunnel(std::uint64_t flow_id,
                                            std::uint64_t seed) const {
  // Feed a synthetic five-tuple through the router's real ECMP hash and
  // map the bucket onto tunnels proportionally to conventional_share
  // (WCMP-style weighted buckets).
  FiveTuple t;
  t.src_ip = static_cast<std::uint32_t>(flow_id ^ seed);
  t.dst_ip = static_cast<std::uint32_t>((flow_id >> 16) * 2654435761u);
  t.proto = dataplane::kProtoUdp;
  t.src_port = static_cast<std::uint16_t>(flow_id * 40503u + seed);
  t.dst_port = 443;
  constexpr std::uint32_t kBuckets = 1024;
  const std::uint32_t bucket = Router::ecmp_hash(t, kBuckets);
  double acc = 0.0;
  for (std::size_t i = 0; i < tunnels.size(); ++i) {
    acc += tunnels[i].conventional_share;
    if (bucket < acc * kBuckets) return i;
  }
  return tunnels.size() - 1;
}

double ProductionScenario::conventional_latency_ms(
    std::uint32_t connections, std::uint64_t seed) const {
  double sum = 0.0;
  for (std::uint32_t c = 0; c < connections; ++c) {
    sum += tunnels[hash_tunnel(c + 1, seed)].latency_ms;
  }
  return connections > 0 ? sum / connections : 0.0;
}

std::vector<PairLatencyStats> conventional_latency_day(
    const ProductionScenario& scenario, std::size_t num_pairs,
    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<PairLatencyStats> out;
  constexpr int kSamplesPerDay = 24 * 12;  // 5-minute samples
  for (std::size_t p = 0; p < num_pairs; ++p) {
    PairLatencyStats stats;
    stats.pair_name = "instance-pair-" + std::to_string(p + 1);
    // The pair's connection gets re-established during the day (NAT
    // timeouts, reconnects): a fresh source port means a fresh hash.
    std::uint64_t flow_id = rng.next();
    for (int s = 0; s < kSamplesPerDay; ++s) {
      if (rng.uniform() < 0.08) flow_id = rng.next();  // connection churn
      const std::size_t t = scenario.hash_tunnel(flow_id, seed);
      // Propagation plus small measurement jitter.
      const double jitter = rng.normal(0.0, 0.6);
      stats.samples_ms.push_back(scenario.tunnels[t].latency_ms + jitter);
    }
    stats.p5 = util::percentile(stats.samples_ms, 5);
    stats.p25 = util::percentile(stats.samples_ms, 25);
    stats.p50 = util::percentile(stats.samples_ms, 50);
    stats.p75 = util::percentile(stats.samples_ms, 75);
    stats.p95 = util::percentile(stats.samples_ms, 95);
    out.push_back(std::move(stats));
  }
  return out;
}

std::vector<AppProfile> fig15_apps() {
  return {
      {"App1-video-streaming", tm::QosClass::kClass1, 6, 4.0},
      {"App2-live-streaming", tm::QosClass::kClass1, 12, 6.0},
      {"App3-realtime-message", tm::QosClass::kClass1, 24, 0.5},
      {"App4-financial-payment", tm::QosClass::kClass1, 16, 0.3},
      {"App5-online-gaming", tm::QosClass::kClass1, 32, 2.0},
  };
}

std::vector<AppLatencyResult> evaluate_app_latency(
    const ProductionScenario& scenario, const std::vector<AppProfile>& apps,
    std::uint64_t seed) {
  std::vector<AppLatencyResult> out;
  std::uint64_t app_seed = seed;
  for (const AppProfile& app : apps) {
    AppLatencyResult r;
    r.app = app.name;
    // Conventional: the app's connections are hashed QoS-blind.
    r.conventional_ms =
        scenario.conventional_latency_ms(app.connections, ++app_seed);
    // MegaTE: every flow of the class is pinned to the class's tunnel.
    r.megate_ms =
        scenario.tunnels[scenario.megate_tunnel_for(app.qos)].latency_ms;
    r.reduction_pct =
        100.0 * (1.0 - r.megate_ms / std::max(1e-9, r.conventional_ms));
    out.push_back(r);
  }
  return out;
}

namespace {

const char* kMonths[] = {"2022-10", "2022-11", "2022-12",
                         "2023-01", "2023-02", "2023-03"};
constexpr int kDeployMonth = 2;  // MegaTE rollout: December 2022

/// Monthly availability of one tunnel: the long-run availability plus a
/// sampled incident term (minutes of extra downtime in the month).
double monthly_availability(const TunnelProfile& t, util::Rng& rng) {
  const double month_minutes = 30.0 * 24.0 * 60.0;
  const double base_downtime = (1.0 - t.availability) * month_minutes;
  // Incidents are bursty: lognormal multiplier around 1.
  const double downtime = base_downtime * rng.lognormal(0.0, 0.35);
  return std::max(0.0, 1.0 - downtime / month_minutes);
}

}  // namespace

std::vector<AvailabilityPoint> evaluate_availability(
    const ProductionScenario& scenario, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<AvailabilityPoint> out;
  const std::size_t qos1 = scenario.megate_tunnel_for(tm::QosClass::kClass1);
  const std::size_t qos3 = scenario.megate_tunnel_for(tm::QosClass::kClass3);
  for (int m = 0; m < 6; ++m) {
    AvailabilityPoint pt;
    pt.month = kMonths[m];
    pt.megate_deployed = m >= kDeployMonth;
    // This month's realized per-tunnel availability.
    std::vector<double> avail;
    for (const auto& t : scenario.tunnels) {
      avail.push_back(monthly_availability(t, rng));
    }
    if (!pt.megate_deployed) {
      // Conventional: both apps' connections are hashed across tunnels;
      // expected availability is the share-weighted mixture.
      double mix = 0.0;
      for (std::size_t i = 0; i < avail.size(); ++i) {
        mix += scenario.tunnels[i].conventional_share * avail[i];
      }
      pt.app6_availability = mix;
      pt.app7_availability = mix;
    } else {
      pt.app6_availability = avail[qos1];
      pt.app7_availability = avail[qos3];
    }
    out.push_back(pt);
  }
  return out;
}

std::vector<CostPoint> evaluate_cost(const ProductionScenario& scenario,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<CostPoint> out;
  const AppProfile app8{"App8-online-gaming", tm::QosClass::kClass1, 32, 2.0};
  const AppProfile app9{"App9-bulk-transfer", tm::QosClass::kClass3, 8, 40.0};
  const std::size_t qos1 = scenario.megate_tunnel_for(tm::QosClass::kClass1);
  const std::size_t qos3 = scenario.megate_tunnel_for(tm::QosClass::kClass3);
  // The pre-MegaTE system routed everything onto the high-availability
  // (premium) path to protect class-1 traffic (§7).
  const std::size_t premium = qos1;
  for (int m = 0; m < 6; ++m) {
    CostPoint pt;
    pt.month = kMonths[m];
    pt.megate_deployed = m >= kDeployMonth;
    const double volume_jitter = rng.lognormal(0.0, 0.05);
    const double c8 = app8.demand_gbps * volume_jitter;
    const double c9 = app9.demand_gbps * volume_jitter;
    if (!pt.megate_deployed) {
      pt.app8_cost = c8 * scenario.tunnels[premium].cost_per_gbps;
      pt.app9_cost = c9 * scenario.tunnels[premium].cost_per_gbps;
    } else {
      pt.app8_cost = c8 * scenario.tunnels[qos1].cost_per_gbps;
      pt.app9_cost = c9 * scenario.tunnels[qos3].cost_per_gbps;
    }
    out.push_back(pt);
  }
  return out;
}

}  // namespace megate::sim

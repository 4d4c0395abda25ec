#pragma once
// Endpoint-granular traffic matrices (the paper's d_k^i, Table 1).
//
// A traffic matrix holds, for each ordered site pair k, the set of
// endpoint-pair flows I_k with their bandwidth demand and QoS class. The
// generator mimics the production characteristics the paper relies on:
// demand per flow is heavy-tailed (lognormal), flow count per site pair
// follows a gravity model on endpoint counts, and traffic splits into three
// QoS classes (§4.1: class 1 latency-critical, 2 user traffic, 3 bulk).

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "megate/tm/endpoints.h"
#include "megate/topo/tunnels.h"

namespace megate::tm {

/// Paper QoS classes; lower value = higher priority.
enum class QosClass : std::uint8_t { kClass1 = 1, kClass2 = 2, kClass3 = 3 };

const char* to_string(QosClass q) noexcept;

/// One endpoint-pair flow (indivisible across tunnels).
struct EndpointDemand {
  EndpointId src = 0;
  EndpointId dst = 0;
  double demand_gbps = 0.0;
  QosClass qos = QosClass::kClass2;
};

/// Demands grouped by ordered site pair.
class TrafficMatrix {
 public:
  using PairMap = std::unordered_map<topo::SitePair,
                                     std::vector<EndpointDemand>,
                                     topo::SitePairHash>;

  void add(const EndpointDemand& d);

  const PairMap& pairs() const noexcept { return pairs_; }
  PairMap& pairs() noexcept { return pairs_; }

  std::size_t num_site_pairs() const noexcept { return pairs_.size(); }
  std::uint64_t num_flows() const noexcept;
  double total_demand_gbps() const noexcept;
  double total_demand_gbps(QosClass q) const noexcept;

  /// Site-level aggregate demand per pair (the paper's SiteMerge D_k),
  /// optionally restricted to one QoS class (0 = all).
  std::unordered_map<topo::SitePair, double, topo::SitePairHash>
  site_demands(int qos_filter = 0) const;

 private:
  PairMap pairs_;
};

struct TrafficOptions {
  /// Mean number of flows per endpoint (each endpoint originates roughly
  /// this many endpoint-pair flows).
  double flows_per_endpoint = 1.0;
  /// Fraction of ordered site pairs that exchange traffic at all.
  double active_pair_fraction = 0.6;
  /// Lognormal sigma of per-flow demand (Gbps) before scaling; the mu
  /// and the class-3 multiplier are fixed in traffic.cpp.
  double demand_sigma = 1.2;
  /// QoS mix by flow count (must sum to 1).
  double qos1_fraction = 0.10;
  double qos2_fraction = 0.60;
  double qos3_fraction = 0.30;
  /// If > 0, rescale all demands so the matrix total equals this.
  double target_total_gbps = 0.0;
};

/// Generates a matrix for `layout` on `g`. Deterministic in `seed`.
TrafficMatrix generate_traffic(const topo::Graph& g,
                               const EndpointLayout& layout,
                               const TrafficOptions& options,
                               std::uint64_t seed);

/// Sum of up-link capacities of `g` (used by benches to pick a
/// target_total_gbps that loads the WAN to a given fraction).
double total_link_capacity_gbps(const topo::Graph& g);

}  // namespace megate::tm

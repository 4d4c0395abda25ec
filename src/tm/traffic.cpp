#include "megate/tm/traffic.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "megate/util/rng.h"

namespace megate::tm {
namespace {

/// Lognormal mu of per-flow demand (Gbps) before scaling.
constexpr double kDemandMu = -3.0;
/// Bulk flows (class 3) are this many times larger on average.
constexpr double kQos3DemandMultiplier = 4.0;

}  // namespace

const char* to_string(QosClass q) noexcept {
  switch (q) {
    case QosClass::kClass1: return "QoS-1";
    case QosClass::kClass2: return "QoS-2";
    case QosClass::kClass3: return "QoS-3";
  }
  return "?";
}

void TrafficMatrix::add(const EndpointDemand& d) {
  const topo::SitePair k{endpoint_site(d.src), endpoint_site(d.dst)};
  pairs_[k].push_back(d);
}

std::uint64_t TrafficMatrix::num_flows() const noexcept {
  std::uint64_t n = 0;
  for (const auto& [k, flows] : pairs_) n += flows.size();
  return n;
}

double TrafficMatrix::total_demand_gbps() const noexcept {
  double total = 0.0;
  for (const auto& [k, flows] : pairs_) {
    for (const EndpointDemand& d : flows) total += d.demand_gbps;
  }
  return total;
}

double TrafficMatrix::total_demand_gbps(QosClass q) const noexcept {
  double total = 0.0;
  for (const auto& [k, flows] : pairs_) {
    for (const EndpointDemand& d : flows) {
      if (d.qos == q) total += d.demand_gbps;
    }
  }
  return total;
}

std::unordered_map<topo::SitePair, double, topo::SitePairHash>
TrafficMatrix::site_demands(int qos_filter) const {
  std::unordered_map<topo::SitePair, double, topo::SitePairHash> out;
  for (const auto& [k, flows] : pairs_) {
    double sum = 0.0;
    for (const EndpointDemand& d : flows) {
      if (qos_filter == 0 || static_cast<int>(d.qos) == qos_filter) {
        sum += d.demand_gbps;
      }
    }
    if (sum > 0.0) out[k] = sum;
  }
  return out;
}

TrafficMatrix generate_traffic(const topo::Graph& g,
                               const EndpointLayout& layout,
                               const TrafficOptions& options,
                               std::uint64_t seed) {
  if (g.num_nodes() != layout.num_sites()) {
    throw std::invalid_argument("layout does not match topology");
  }
  const double qsum = options.qos1_fraction + options.qos2_fraction +
                      options.qos3_fraction;
  if (std::abs(qsum - 1.0) > 1e-9) {
    throw std::invalid_argument("QoS fractions must sum to 1");
  }
  util::Rng rng(seed);
  TrafficMatrix tm;
  const auto n = static_cast<topo::NodeId>(g.num_nodes());
  const double total_eps = static_cast<double>(layout.total_endpoints());
  if (total_eps == 0.0 || n < 2) return tm;
  const double target_flows = total_eps * options.flows_per_endpoint;

  // Gravity model: P(flow on pair (s,d)) ~ eps(s) * eps(d). We sample the
  // number of flows per active ordered site pair from that distribution and
  // then pick concrete endpoints uniformly at each end.
  struct ActivePair {
    topo::NodeId s, d;
    double weight;
  };
  std::vector<ActivePair> active;
  double weight_sum = 0.0;
  for (topo::NodeId s = 0; s < n; ++s) {
    for (topo::NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      if (rng.uniform() > options.active_pair_fraction) continue;
      const double w = static_cast<double>(layout.endpoints_at(s)) *
                       static_cast<double>(layout.endpoints_at(d));
      if (w <= 0.0) continue;
      active.push_back({s, d, w});
      weight_sum += w;
    }
  }
  if (active.empty() || weight_sum <= 0.0) return tm;

  for (const ActivePair& ap : active) {
    const double expected = target_flows * ap.weight / weight_sum;
    // Round stochastically so small expectations still yield flows overall.
    auto count = static_cast<std::uint64_t>(expected);
    if (rng.uniform() < expected - static_cast<double>(count)) ++count;
    for (std::uint64_t i = 0; i < count; ++i) {
      EndpointDemand d;
      d.src = make_endpoint(
          ap.s, static_cast<std::uint32_t>(
                    rng.uniform_int(0, layout.endpoints_at(ap.s) - 1)));
      d.dst = make_endpoint(
          ap.d, static_cast<std::uint32_t>(
                    rng.uniform_int(0, layout.endpoints_at(ap.d) - 1)));
      const double u = rng.uniform();
      if (u < options.qos1_fraction) {
        d.qos = QosClass::kClass1;
      } else if (u < options.qos1_fraction + options.qos2_fraction) {
        d.qos = QosClass::kClass2;
      } else {
        d.qos = QosClass::kClass3;
      }
      d.demand_gbps = rng.lognormal(kDemandMu, options.demand_sigma);
      if (d.qos == QosClass::kClass3) {
        d.demand_gbps *= kQos3DemandMultiplier;
      }
      tm.add(d);
    }
  }

  if (options.target_total_gbps > 0.0) {
    const double total = tm.total_demand_gbps();
    if (total > 0.0) {
      const double scale = options.target_total_gbps / total;
      for (auto& [k, flows] : tm.pairs()) {
        for (EndpointDemand& d : flows) d.demand_gbps *= scale;
      }
    }
  }
  return tm;
}

double total_link_capacity_gbps(const topo::Graph& g) {
  double total = 0.0;
  for (const topo::Link& l : g.links()) {
    if (l.up) total += l.capacity_gbps;
  }
  return total;
}

}  // namespace megate::tm

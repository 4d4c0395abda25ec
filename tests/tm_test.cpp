// Tests for megate::tm — endpoint identifiers, the Weibull endpoint
// layout (paper Fig. 8), and the endpoint-granular traffic generator.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "megate/tm/demand_stream.h"
#include "megate/tm/endpoints.h"
#include "megate/tm/traffic.h"
#include "megate/topo/generators.h"

namespace megate::tm {
namespace {

topo::Graph small_graph() {
  topo::GeneratorOptions opt;
  opt.seed = 21;
  return topo::make_isp_like(8, 12, opt);
}

// --- endpoint ids ---------------------------------------------------------

TEST(EndpointId, PacksAndUnpacks) {
  const EndpointId ep = make_endpoint(17, 123456);
  EXPECT_EQ(endpoint_site(ep), 17u);
  EXPECT_EQ(endpoint_index(ep), 123456u);
}

TEST(EndpointId, DistinctSitesDistinctIds) {
  EXPECT_NE(make_endpoint(1, 0), make_endpoint(2, 0));
  EXPECT_NE(make_endpoint(1, 5), make_endpoint(1, 6));
}

// --- layout ----------------------------------------------------------------

TEST(EndpointLayout, TotalsAndAccess) {
  EndpointLayout layout({10, 20, 30});
  EXPECT_EQ(layout.num_sites(), 3u);
  EXPECT_EQ(layout.total_endpoints(), 60u);
  EXPECT_EQ(layout.endpoints_at(1), 20u);
}

TEST(GenerateEndpoints, RespectsMinimum) {
  auto g = small_graph();
  EndpointDistribution dist;
  dist.shape = 0.8;
  dist.scale = 0.01;  // nearly all samples round to zero
  dist.min_per_site = 3;
  auto layout = generate_endpoints(g, dist, 1);
  for (std::uint32_t c : layout.per_site()) EXPECT_GE(c, 3u);
}

TEST(GenerateEndpoints, DeterministicInSeed) {
  auto g = small_graph();
  EndpointDistribution dist;
  auto a = generate_endpoints(g, dist, 99);
  auto b = generate_endpoints(g, dist, 99);
  EXPECT_EQ(a.per_site(), b.per_site());
}

TEST(GenerateEndpoints, SpreadsOverOrdersOfMagnitude) {
  // The paper's Fig. 8 point: endpoint counts vary by orders of magnitude.
  topo::GeneratorOptions opt;
  opt.seed = 2;
  auto g = topo::make_topology(topo::TopologyKind::kDeltacom, opt);
  EndpointDistribution dist;
  dist.shape = 0.6;
  dist.scale = 2000.0;
  auto layout = generate_endpoints(g, dist, 5);
  std::uint32_t lo = ~0u, hi = 0;
  for (std::uint32_t c : layout.per_site()) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_GE(static_cast<double>(hi) / std::max(1u, lo), 100.0);
}

TEST(GenerateEndpointsWithTotal, HitsTargetApproximately) {
  topo::GeneratorOptions opt;
  opt.seed = 3;
  auto g = topo::make_topology(topo::TopologyKind::kDeltacom, opt);
  const std::uint64_t target = 100000;
  auto layout = generate_endpoints_with_total(g, target, 0.8, 7);
  const double ratio =
      static_cast<double>(layout.total_endpoints()) / target;
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(WeibullCdf, KnownValues) {
  EXPECT_DOUBLE_EQ(weibull_cdf(0.0, 1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(weibull_cdf(-5.0, 1.0, 1.0), 0.0);
  // shape 1 == exponential: CDF(scale) = 1 - 1/e.
  EXPECT_NEAR(weibull_cdf(1.0, 1.0, 1.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_GT(weibull_cdf(10.0, 0.8, 1.0), 0.99);
}

TEST(WeibullCdf, MonotoneInX) {
  double prev = 0.0;
  for (double x = 0.1; x < 20.0; x += 0.1) {
    const double c = weibull_cdf(x, 0.8, 3.0);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

// --- traffic ---------------------------------------------------------------

TrafficOptions default_opts() {
  TrafficOptions o;
  o.flows_per_endpoint = 2.0;
  return o;
}

TEST(Traffic, GeneratesFlowsGroupedBySitePair) {
  auto g = small_graph();
  EndpointLayout layout(std::vector<std::uint32_t>(g.num_nodes(), 50));
  auto tm = generate_traffic(g, layout, default_opts(), 11);
  EXPECT_GT(tm.num_flows(), 0u);
  for (const auto& [pair, flows] : tm.pairs()) {
    EXPECT_NE(pair.src, pair.dst);
    for (const EndpointDemand& d : flows) {
      EXPECT_EQ(endpoint_site(d.src), pair.src);
      EXPECT_EQ(endpoint_site(d.dst), pair.dst);
      EXPECT_GT(d.demand_gbps, 0.0);
      EXPECT_LT(endpoint_index(d.src), 50u);
    }
  }
}

TEST(Traffic, FlowCountTracksTarget) {
  auto g = small_graph();
  EndpointLayout layout(std::vector<std::uint32_t>(g.num_nodes(), 100));
  TrafficOptions o = default_opts();
  o.flows_per_endpoint = 1.0;
  o.active_pair_fraction = 1.0;
  auto tm = generate_traffic(g, layout, o, 13);
  const double expected = static_cast<double>(layout.total_endpoints());
  EXPECT_NEAR(static_cast<double>(tm.num_flows()) / expected, 1.0, 0.15);
}

TEST(Traffic, DeterministicInSeed) {
  auto g = small_graph();
  EndpointLayout layout(std::vector<std::uint32_t>(g.num_nodes(), 30));
  auto a = generate_traffic(g, layout, default_opts(), 17);
  auto b = generate_traffic(g, layout, default_opts(), 17);
  EXPECT_EQ(a.num_flows(), b.num_flows());
  EXPECT_DOUBLE_EQ(a.total_demand_gbps(), b.total_demand_gbps());
}

TEST(Traffic, QosMixRoughlyMatchesFractions) {
  auto g = small_graph();
  EndpointLayout layout(std::vector<std::uint32_t>(g.num_nodes(), 200));
  TrafficOptions o = default_opts();
  o.flows_per_endpoint = 5.0;
  auto tm = generate_traffic(g, layout, o, 19);
  std::uint64_t counts[4] = {0, 0, 0, 0};
  for (const auto& [pair, flows] : tm.pairs()) {
    for (const auto& d : flows) counts[static_cast<int>(d.qos)]++;
  }
  const double total = static_cast<double>(tm.num_flows());
  EXPECT_NEAR(counts[1] / total, 0.10, 0.03);
  EXPECT_NEAR(counts[2] / total, 0.60, 0.05);
  EXPECT_NEAR(counts[3] / total, 0.30, 0.05);
}

TEST(Traffic, TargetTotalScalesDemands) {
  auto g = small_graph();
  EndpointLayout layout(std::vector<std::uint32_t>(g.num_nodes(), 40));
  TrafficOptions o = default_opts();
  o.target_total_gbps = 1234.5;
  auto tm = generate_traffic(g, layout, o, 23);
  EXPECT_NEAR(tm.total_demand_gbps(), 1234.5, 1e-6);
}

TEST(Traffic, SiteDemandsMatchFlowSums) {
  auto g = small_graph();
  EndpointLayout layout(std::vector<std::uint32_t>(g.num_nodes(), 20));
  auto tm = generate_traffic(g, layout, default_opts(), 29);
  auto site = tm.site_demands();
  double sum = 0.0;
  for (const auto& [pair, d] : site) sum += d;
  EXPECT_NEAR(sum, tm.total_demand_gbps(), 1e-9);
}

TEST(Traffic, SiteDemandsQosFilter) {
  auto g = small_graph();
  EndpointLayout layout(std::vector<std::uint32_t>(g.num_nodes(), 50));
  auto tm = generate_traffic(g, layout, default_opts(), 31);
  auto q1 = tm.site_demands(1);
  double sum1 = 0.0;
  for (const auto& [pair, d] : q1) sum1 += d;
  EXPECT_NEAR(sum1, tm.total_demand_gbps(QosClass::kClass1), 1e-9);
  EXPECT_LT(sum1, tm.total_demand_gbps());
}

TEST(Traffic, RejectsBadQosFractions) {
  auto g = small_graph();
  EndpointLayout layout(std::vector<std::uint32_t>(g.num_nodes(), 10));
  TrafficOptions o = default_opts();
  o.qos1_fraction = 0.5;
  o.qos2_fraction = 0.2;
  o.qos3_fraction = 0.2;  // sums to 0.9
  EXPECT_THROW(generate_traffic(g, layout, o, 1), std::invalid_argument);
}

TEST(Traffic, RejectsMismatchedLayout) {
  auto g = small_graph();
  EndpointLayout layout({1, 2});  // wrong site count
  EXPECT_THROW(generate_traffic(g, layout, default_opts(), 1),
               std::invalid_argument);
}

TEST(Traffic, Class3FlowsAreHeavier) {
  auto g = small_graph();
  EndpointLayout layout(std::vector<std::uint32_t>(g.num_nodes(), 200));
  TrafficOptions o = default_opts();
  o.flows_per_endpoint = 5.0;
  auto tm = generate_traffic(g, layout, o, 41);
  double sum1 = 0, n1 = 0, sum3 = 0, n3 = 0;
  for (const auto& [pair, flows] : tm.pairs()) {
    for (const auto& d : flows) {
      if (d.qos == QosClass::kClass1) sum1 += d.demand_gbps, n1 += 1;
      if (d.qos == QosClass::kClass3) sum3 += d.demand_gbps, n3 += 1;
    }
  }
  ASSERT_GT(n1, 0);
  ASSERT_GT(n3, 0);
  EXPECT_GT(sum3 / n3, 2.0 * (sum1 / n1));  // bulk flows dominate
}

TEST(Traffic, TotalLinkCapacityCountsUpLinksOnly) {
  auto g = small_graph();
  const double full = total_link_capacity_gbps(g);
  g.set_link_state(0, false);
  const double less = total_link_capacity_gbps(g);
  EXPECT_LT(less, full);
  EXPECT_NEAR(full - less, g.link(0).capacity_gbps, 1e-9);
}

// --- pinned constants ------------------------------------------------------

/// Bit digests recorded at the commit before the generators' fixed
/// parameters became constants: the demand lognormal's mu and the class-3
/// multiplier (no target rescale hides them here), and the churn stream's
/// diurnal amplitude, arrival fan-out and arrival demand factor.
constexpr std::uint64_t kPinnedTraffic = 0x8ec2d9a78ade6fc2ULL;
constexpr std::uint64_t kPinnedChurn = 0xd2d52cc3b3eab2b2ULL;

TrafficMatrix pinned_traffic() {
  const topo::Graph g = small_graph();
  const EndpointLayout layout(std::vector<std::uint32_t>(g.num_nodes(), 6));
  TrafficOptions opt;
  opt.flows_per_endpoint = 2.0;
  return generate_traffic(g, layout, opt, 17);
}

std::uint64_t digest_matrix(const TrafficMatrix& m) {
  std::vector<std::array<std::uint64_t, 4>> rows;
  for (const auto& [pair, flows] : m.pairs()) {
    for (const EndpointDemand& f : flows) {
      rows.push_back({f.src, f.dst, std::bit_cast<std::uint64_t>(f.demand_gbps),
                      static_cast<std::uint64_t>(f.qos)});
    }
  }
  std::sort(rows.begin(), rows.end());
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const auto& r : rows) {
    for (std::uint64_t w : r) h = (h ^ w) * 0x100000001B3ULL;
  }
  return h;
}

TEST(TrafficPinned, DemandsMatchParent) {
  const std::uint64_t h = digest_matrix(pinned_traffic());
  EXPECT_EQ(h, kPinnedTraffic) << std::hex << "got 0x" << h;
}

TEST(ChurnPinned, StreamMatchesParent) {
  const TrafficMatrix base = pinned_traffic();
  ChurnOptions opt;
  opt.seed = 9;
  opt.flow_scale_events = 4;
  opt.diurnal_steps = 5;
  opt.endpoint_arrivals = 3;
  const DemandStream stream = DemandStream::generate(base, opt);
  ASSERT_FALSE(stream.events().empty());
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const DemandEvent& ev : stream.events()) {
    for (const FlowChange& c : ev.changes) {
      h = (h ^ c.dst) * 0x100000001B3ULL;
      h = (h ^ std::bit_cast<std::uint64_t>(c.after_gbps)) * 0x100000001B3ULL;
    }
  }
  EXPECT_EQ(h, kPinnedChurn) << std::hex << "got 0x" << h;
}

}  // namespace
}  // namespace megate::tm

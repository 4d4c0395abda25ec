// Tests for the §8 extension features: site clustering, the hybrid sync
// planner, flow-demand prediction, the multi-period simulation, the
// cluster-contracted MaxSiteFlow and the VTEP receive path.

#include <gtest/gtest.h>

#include <set>

#include "megate/ctrl/hybrid_sync.h"
#include "megate/dataplane/host_stack.h"
#include "megate/sim/period_sim.h"
#include "megate/te/checker.h"
#include "megate/te/megate_solver.h"
#include "megate/te/site_lp.h"
#include "megate/tm/prediction.h"
#include "megate/topo/clustering.h"
#include "megate/util/rng.h"
#include "megate/util/thread_pool.h"
#include "test_helpers.h"

namespace megate {
namespace {

using megate::testing::make_scenario;

// --- clustering -----------------------------------------------------------

TEST(Clustering, CoversAllSites) {
  auto s = make_scenario(20, 34, 5);
  auto assignment = topo::cluster_sites(s->graph, 4);
  ASSERT_EQ(assignment.size(), s->graph.num_nodes());
  EXPECT_EQ(topo::num_clusters(assignment), 4u);
}

TEST(Clustering, ClampsClusterCount) {
  auto s = make_scenario(6, 10, 5);
  auto one = topo::cluster_sites(s->graph, 1);
  EXPECT_EQ(topo::num_clusters(one), 1u);
  auto many = topo::cluster_sites(s->graph, 100);
  EXPECT_LE(topo::num_clusters(many), s->graph.num_nodes());
}

TEST(Clustering, Deterministic) {
  auto s = make_scenario(15, 26, 5);
  EXPECT_EQ(topo::cluster_sites(s->graph, 3),
            topo::cluster_sites(s->graph, 3));
}

// --- hybrid sync ------------------------------------------------------------

TEST(HybridSync, CoversRequestedShareWithFewInstances) {
  // Production-skewed demands (the paper: "a small part of the flows
  // account for most of the network traffic").
  auto s = make_scenario(8, 14, 60, 0.3);
  tm::EndpointLayout layout(
      std::vector<std::uint32_t>(s->graph.num_nodes(), 60));
  tm::TrafficOptions tmo;
  tmo.demand_sigma = 2.5;  // strongly heavy-tailed
  tm::TrafficMatrix traffic =
      tm::generate_traffic(s->graph, layout, tmo, 77);

  ctrl::HybridSyncOptions opt;
  opt.heavy_traffic_share = 0.9;
  auto plan = ctrl::plan_hybrid_sync(traffic, opt);
  EXPECT_GE(plan.covered_traffic_share, 0.9);
  const std::size_t total =
      plan.persistent_instances.size() + plan.polling_instances;
  EXPECT_LT(plan.persistent_instances.size(), total / 2);
}

TEST(HybridSync, ExtremesMatchPureModes) {
  auto s = make_scenario(8, 14, 30, 0.3);
  ctrl::HybridSyncOptions none;
  none.heavy_traffic_share = 0.0;
  auto pull_only = ctrl::plan_hybrid_sync(s->traffic, none);
  EXPECT_TRUE(pull_only.persistent_instances.empty());
  EXPECT_DOUBLE_EQ(pull_only.mean_staleness_s, none.poll_interval_s / 2.0);

  ctrl::HybridSyncOptions all;
  all.heavy_traffic_share = 1.0;
  auto push_only = ctrl::plan_hybrid_sync(s->traffic, all);
  EXPECT_EQ(push_only.polling_instances, 0u);
  EXPECT_NEAR(push_only.mean_staleness_s, ctrl::kPushLatencyS, 1e-9);
}

TEST(HybridSync, StalenessDropsAsShareGrows) {
  auto s = make_scenario(8, 14, 40, 0.3);
  double prev_staleness = 1e9;
  double prev_cores = 0.0;
  for (double share : {0.0, 0.5, 0.9, 0.99}) {
    ctrl::HybridSyncOptions opt;
    opt.heavy_traffic_share = share;
    auto plan = ctrl::plan_hybrid_sync(s->traffic, opt);
    EXPECT_LE(plan.mean_staleness_s, prev_staleness + 1e-9);
    EXPECT_GE(plan.resources.cpu_cores, prev_cores - 1e-9);
    prev_staleness = plan.mean_staleness_s;
    prev_cores = plan.resources.cpu_cores;
  }
}

TEST(HybridSync, RejectsBadShare) {
  auto s = make_scenario(4, 6, 5);
  ctrl::HybridSyncOptions opt;
  opt.heavy_traffic_share = 1.5;
  EXPECT_THROW(ctrl::plan_hybrid_sync(s->traffic, opt),
               std::invalid_argument);
}

TEST(HybridSync, EmptyTrafficYieldsEmptyPlan) {
  tm::TrafficMatrix empty;
  auto plan = ctrl::plan_hybrid_sync(empty);
  EXPECT_TRUE(plan.persistent_instances.empty());
  EXPECT_EQ(plan.polling_instances, 0u);
}

// --- flow prediction --------------------------------------------------------

tm::TrafficMatrix one_flow(double demand) {
  tm::TrafficMatrix m;
  tm::EndpointDemand d;
  d.src = tm::make_endpoint(1, 0);
  d.dst = tm::make_endpoint(2, 0);
  d.demand_gbps = demand;
  m.add(d);
  return m;
}

TEST(Predictor, LastValueTracksExactly) {
  tm::FlowPredictor p(tm::PredictorKind::kLastValue);
  p.observe(one_flow(5.0));
  EXPECT_DOUBLE_EQ(p.predict().total_demand_gbps(), 5.0);
  p.observe(one_flow(9.0));
  EXPECT_DOUBLE_EQ(p.predict().total_demand_gbps(), 9.0);
}

TEST(Predictor, EwmaSmoothsNoise) {
  tm::FlowPredictor p(tm::PredictorKind::kEwma, 0.5);
  p.observe(one_flow(10.0));
  p.observe(one_flow(20.0));
  // 0.5*20 + 0.5*10 = 15.
  EXPECT_NEAR(p.predict().total_demand_gbps(), 15.0, 1e-9);
}

TEST(Predictor, LastValueForgetsQuietFlows) {
  tm::FlowPredictor p(tm::PredictorKind::kLastValue);
  p.observe(one_flow(5.0));
  p.observe(tm::TrafficMatrix{});  // flow went quiet
  EXPECT_EQ(p.tracked_flows(), 0u);
}

TEST(Predictor, EwmaDecaysQuietFlows) {
  tm::FlowPredictor p(tm::PredictorKind::kEwma, 0.5);
  p.observe(one_flow(8.0));
  p.observe(tm::TrafficMatrix{});
  EXPECT_EQ(p.tracked_flows(), 1u);
  EXPECT_NEAR(p.predict().total_demand_gbps(), 4.0, 1e-9);
}

TEST(Predictor, MapeZeroOnPerfectPrediction) {
  tm::FlowPredictor p(tm::PredictorKind::kLastValue);
  p.observe(one_flow(5.0));
  EXPECT_DOUBLE_EQ(p.mape(one_flow(5.0)), 0.0);
  EXPECT_NEAR(p.mape(one_flow(10.0)), 0.5, 1e-9);
}

TEST(Predictor, RejectsBadAlpha) {
  EXPECT_THROW(tm::FlowPredictor(tm::PredictorKind::kEwma, 0.0),
               std::invalid_argument);
  EXPECT_THROW(tm::FlowPredictor(tm::PredictorKind::kEwma, 1.5),
               std::invalid_argument);
}

TEST(Predictor, EwmaBeatsLastValueOnNoisySeries) {
  // demand_t = 10 * exp(noise): EWMA's error must be below last-value's.
  megate::util::Rng rng(5);
  tm::FlowPredictor ewma(tm::PredictorKind::kEwma, 0.3);
  tm::FlowPredictor last(tm::PredictorKind::kLastValue);
  double err_ewma = 0.0, err_last = 0.0;
  tm::TrafficMatrix prev = one_flow(10.0);
  ewma.observe(prev);
  last.observe(prev);
  for (int t = 0; t < 60; ++t) {
    tm::TrafficMatrix actual = one_flow(10.0 * rng.lognormal(0.0, 0.5));
    err_ewma += ewma.mape(actual);
    err_last += last.mape(actual);
    ewma.observe(actual);
    last.observe(actual);
  }
  EXPECT_LT(err_ewma, err_last);
}

// --- period simulation --------------------------------------------------

TEST(PeriodSim, OracleDominatesStale) {
  auto s = make_scenario(8, 14, 25, 0.5, 17);
  sim::PeriodSimOptions opt;
  opt.periods = 5;
  opt.seed = 3;
  auto stale = sim::run_period_simulation(s->graph, s->tunnels, s->traffic,
                                          sim::DemandKnowledge::kStale, opt);
  auto oracle = sim::run_period_simulation(
      s->graph, s->tunnels, s->traffic, sim::DemandKnowledge::kOracle, opt);
  ASSERT_EQ(stale.size(), 5u);
  ASSERT_EQ(oracle.size(), 5u);
  double stale_mean = 0, oracle_mean = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    // Demand evolution is seed-deterministic, so periods align exactly.
    EXPECT_NEAR(stale[i].actual_total_gbps, oracle[i].actual_total_gbps,
                1e-9);
    stale_mean += stale[i].realized_satisfied();
    oracle_mean += oracle[i].realized_satisfied();
  }
  EXPECT_GE(oracle_mean, stale_mean - 1e-6);
  for (const auto& o : oracle) EXPECT_DOUBLE_EQ(o.prediction_mape, 0.0);
  for (const auto& o : stale) EXPECT_GT(o.prediction_mape, 0.0);
}

TEST(PeriodSim, RealizedSatisfiedIsAFraction) {
  auto s = make_scenario(8, 14, 15, 0.4, 9);
  sim::PeriodSimOptions opt;
  opt.periods = 3;
  auto out = sim::run_period_simulation(s->graph, s->tunnels, s->traffic,
                                        sim::DemandKnowledge::kPredicted,
                                        opt);
  for (const auto& o : out) {
    EXPECT_GT(o.realized_satisfied(), 0.0);
    EXPECT_LE(o.realized_satisfied(), 1.0 + 1e-9);
  }
}

// --- clustered stage-1 ----------------------------------------------------

TEST(ClusteredSiteLp, NearJointObjective) {
  auto s = make_scenario(16, 28, 20, 0.4);
  auto demands = s->traffic.site_demands();
  auto joint =
      te::solve_max_site_flow(s->graph, s->tunnels, demands, {}, 0.02);
  util::ThreadPool pool(1);
  auto contracted = te::solve_max_site_flow_clustered(
      s->graph, s->tunnels, demands, {}, 0.02, 3, {}, pool);
  ASSERT_EQ(contracted.status, lp::Status::kOptimal);
  EXPECT_LE(contracted.objective, joint.objective * (1.0 + 1e-6));
  EXPECT_GE(contracted.objective, 0.7 * joint.objective)
      << "static partitioning should cost a bounded share";
  // Merged allocations must respect the joint capacities.
  std::vector<double> usage(s->graph.num_links(), 0.0);
  for (const auto& [pair, alloc] : contracted.alloc) {
    const auto& ts = s->tunnels.tunnels(pair.src, pair.dst);
    for (std::size_t t = 0; t < alloc.size(); ++t) {
      for (topo::EdgeId e : ts[t].links) usage[e] += alloc[t];
    }
  }
  for (topo::EdgeId e = 0; e < s->graph.num_links(); ++e) {
    EXPECT_LE(usage[e],
              s->graph.link(e).capacity_gbps * (1.0 + 1e-6));
  }
}

TEST(ClusteredSiteLp, FallsBackBelowTwoClusters) {
  auto s = make_scenario(6, 10, 10, 0.3);
  auto demands = s->traffic.site_demands();
  util::ThreadPool pool(1);
  auto a = te::solve_max_site_flow_clustered(s->graph, s->tunnels, demands,
                                             {}, 0.02, 1, {}, pool);
  auto b = te::solve_max_site_flow(s->graph, s->tunnels, demands, {}, 0.02);
  EXPECT_NEAR(a.objective, b.objective, 1e-9);
}

TEST(MegaTe, ClusteredStage1StaysFeasibleAndClose) {
  auto s = make_scenario(16, 28, 30, 0.4);
  te::MegaTeSolver plain;
  te::MegaTeOptions copt;
  copt.stage1_clusters = 3;
  te::MegaTeSolver contracted(copt);
  auto sp = plain.solve(s->problem(), {}).solution;
  auto sc = contracted.solve(s->problem(), {}).solution;
  te::CheckOptions check;
  check.require_flow_assignment = true;
  EXPECT_TRUE(te::check_solution(s->problem(), sc, check).ok);
  EXPECT_GE(sc.satisfied_gbps, 0.8 * sp.satisfied_gbps);
}

// --- VTEP ingress -----------------------------------------------------------

TEST(VtepIngress, RoundTripsEgressEncapsulation) {
  using namespace dataplane;
  HostStack sender;
  sender.on_sys_enter_execve(1, 42);
  FiveTuple t;
  t.src_ip = make_overlay_ip(1, 7);
  t.dst_ip = make_overlay_ip(9, 3);
  t.proto = kProtoUdp;
  t.src_port = 1000;
  t.dst_port = 2000;
  sender.on_conntrack_event(t, 1);
  sender.install_route(42, 9, {4, 9});

  Buffer inner;
  EthernetHeader eth;
  eth.serialize(inner);
  Ipv4Header ip;
  ip.protocol = kProtoUdp;
  ip.src_ip = t.src_ip;
  ip.dst_ip = t.dst_ip;
  ip.total_length = kIpv4HeaderSize + kUdpHeaderSize + 16;
  ip.serialize(inner);
  UdpHeader udp;
  udp.src_port = t.src_port;
  udp.dst_port = t.dst_port;
  udp.length = kUdpHeaderSize + 16;
  udp.serialize(inner);
  inner.insert(inner.end(), 16, 0x77);

  auto egress = sender.tc_egress(inner, 0x0A090001);
  ASSERT_EQ(egress.action, TcVerdict::Action::kEncapsulated);

  HostStack receiver;
  auto in = receiver.vtep_ingress(egress.packet);
  ASSERT_EQ(in.action, HostStack::IngressResult::Action::kDecapsulated);
  EXPECT_TRUE(in.had_sr_header);
  EXPECT_EQ(in.inner, inner) << "inner frame must survive byte-for-byte";
}

TEST(VtepIngress, PassesNonVxlanTraffic) {
  using namespace dataplane;
  Buffer b;
  EthernetHeader eth;
  eth.serialize(b);
  Ipv4Header ip;
  ip.protocol = kProtoUdp;
  ip.total_length = kIpv4HeaderSize + kUdpHeaderSize;
  ip.serialize(b);
  UdpHeader udp;
  udp.dst_port = 53;
  udp.serialize(b);
  HostStack hs;
  EXPECT_EQ(hs.vtep_ingress(b).action,
            HostStack::IngressResult::Action::kNotVxlan);
}

TEST(VtepIngress, DropsTruncatedSr) {
  using namespace dataplane;
  // Build a VXLAN packet flagged as SR but without the SR header bytes.
  Buffer b;
  EthernetHeader eth;
  eth.serialize(b);
  Ipv4Header ip;
  ip.protocol = kProtoUdp;
  ip.total_length = static_cast<std::uint16_t>(
      kIpv4HeaderSize + kUdpHeaderSize + kVxlanHeaderSize);
  ip.serialize(b);
  UdpHeader udp;
  udp.dst_port = kVxlanPort;
  udp.length = kUdpHeaderSize + kVxlanHeaderSize;
  udp.serialize(b);
  VxlanHeader vx;
  vx.megate_sr = true;
  vx.serialize(b);
  HostStack hs;
  EXPECT_EQ(hs.vtep_ingress(b).action,
            HostStack::IngressResult::Action::kDropMalformed);
}

}  // namespace
}  // namespace megate

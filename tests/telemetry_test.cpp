// Tests for the telemetry loop: host-stack per-pair reports aggregated by
// the collector into the next TE period's traffic matrix, and the full
// measure -> solve round trip.

#include <gtest/gtest.h>

#include "megate/ctrl/telemetry.h"
#include "megate/te/checker.h"
#include "megate/te/megate_solver.h"
#include "test_helpers.h"

namespace megate {
namespace {

using namespace dataplane;

Buffer frame_for(const FiveTuple& t, std::size_t payload) {
  Buffer b;
  EthernetHeader eth;
  eth.serialize(b);
  Ipv4Header ip;
  ip.protocol = t.proto;
  ip.src_ip = t.src_ip;
  ip.dst_ip = t.dst_ip;
  ip.total_length =
      static_cast<std::uint16_t>(kIpv4HeaderSize + kUdpHeaderSize + payload);
  ip.serialize(b);
  UdpHeader udp;
  udp.src_port = t.src_port;
  udp.dst_port = t.dst_port;
  udp.length = static_cast<std::uint16_t>(kUdpHeaderSize + payload);
  udp.serialize(b);
  b.insert(b.end(), payload, 0x5A);
  return b;
}

/// Drives `packets` packets of one instance flow through a host stack.
void drive_flow(HostStack& host, Pid pid, tm::EndpointId src,
                tm::EndpointId dst, std::uint16_t sport, int packets,
                std::size_t payload) {
  host.on_sys_enter_execve(pid, src);
  FiveTuple t;
  t.src_ip = make_overlay_ip(tm::endpoint_site(src), tm::endpoint_index(src));
  t.dst_ip = make_overlay_ip(tm::endpoint_site(dst), tm::endpoint_index(dst));
  t.proto = kProtoUdp;
  t.src_port = sport;
  t.dst_port = 443;
  host.on_conntrack_event(t, pid);
  Buffer f = frame_for(t, payload);
  for (int i = 0; i < packets; ++i) host.tc_egress(f, 0x01010101);
}

TEST(Telemetry, PairReportKeyedBySourceAndDestination) {
  HostStack host;
  const tm::EndpointId a = tm::make_endpoint(1, 10);
  const tm::EndpointId b = tm::make_endpoint(2, 20);
  const tm::EndpointId c = tm::make_endpoint(3, 30);
  drive_flow(host, 1, a, b, 1000, 3, 100);
  drive_flow(host, 1, a, c, 2000, 2, 100);
  auto report = host.collect_pair_report();
  ASSERT_EQ(report.size(), 2u);  // same source, two destinations
  std::uint64_t total_packets = 0;
  for (const auto& r : report) {
    EXPECT_EQ(r.src_instance, a);
    total_packets += r.packets;
  }
  EXPECT_EQ(total_packets, 5u);
}

TEST(Telemetry, CollectorBuildsTrafficMatrix) {
  HostStack host1, host2;
  const tm::EndpointId a = tm::make_endpoint(1, 1);
  const tm::EndpointId b = tm::make_endpoint(2, 2);
  const tm::EndpointId c = tm::make_endpoint(3, 3);
  drive_flow(host1, 1, a, b, 1000, 10, 1000);
  drive_flow(host2, 2, c, b, 1000, 5, 1000);

  ctrl::TelemetryOptions opt;
  opt.period_s = 1.0;  // 1 s period: Gbps == bytes*8/1e9
  ctrl::TelemetryCollector collector(opt);
  collector.collect_from(host1);
  collector.collect_from(host2);
  EXPECT_EQ(collector.pairs_seen(), 2u);

  tm::TrafficMatrix matrix = collector.finish_period();
  EXPECT_EQ(matrix.num_flows(), 2u);
  EXPECT_EQ(matrix.num_site_pairs(), 2u);  // (1->2) and (3->2)
  // Collector resets after finish_period.
  EXPECT_EQ(collector.pairs_seen(), 0u);
  EXPECT_EQ(collector.total_bytes(), 0u);

  // The demand reflects the measured bytes: 10 packets of
  // (eth+ip+udp+1000) bytes each over 1 s.
  const topo::SitePair pair12{1, 2};
  auto it = matrix.pairs().find(pair12);
  ASSERT_NE(it, matrix.pairs().end());
  ASSERT_EQ(it->second.size(), 1u);
  const double expected_bytes =
      10.0 * (kEthernetHeaderSize + kIpv4HeaderSize + kUdpHeaderSize + 1000);
  EXPECT_NEAR(it->second[0].demand_gbps, expected_bytes * 8.0 / 1e9, 1e-12);
  EXPECT_EQ(it->second[0].src, a);
  EXPECT_EQ(it->second[0].dst, b);
}

TEST(Telemetry, MinDemandFilter) {
  HostStack host;
  drive_flow(host, 1, tm::make_endpoint(1, 1), tm::make_endpoint(2, 1),
             1000, 1, 64);
  ctrl::TelemetryOptions opt;
  opt.period_s = 300.0;
  opt.min_demand_gbps = 1.0;  // one tiny packet cannot reach 1 Gbps
  ctrl::TelemetryCollector collector(opt);
  collector.collect_from(host);
  EXPECT_EQ(collector.finish_period().num_flows(), 0u);
}

TEST(Telemetry, MeasuredMatrixDrivesTheSolver) {
  // Full loop: packets -> telemetry -> matrix -> MegaTE solve on the
  // *measured* demands over a real topology.
  auto s = megate::testing::make_scenario(6, 10, 4, 0.1);
  HostStack host;
  // Three measured flows between sites that exist in the scenario graph.
  drive_flow(host, 1, tm::make_endpoint(0, 1), tm::make_endpoint(1, 2),
             1000, 50, 1200);
  drive_flow(host, 2, tm::make_endpoint(2, 3), tm::make_endpoint(4, 0),
             2000, 80, 1200);
  drive_flow(host, 3, tm::make_endpoint(5, 0), tm::make_endpoint(3, 1),
             3000, 20, 1200);

  ctrl::TelemetryOptions opt;
  opt.period_s = 1e-4;  // scale tiny byte counts up to meaningful Gbps
  ctrl::TelemetryCollector collector(opt);
  collector.collect_from(host);
  tm::TrafficMatrix measured = collector.finish_period();
  ASSERT_EQ(measured.num_flows(), 3u);

  te::TeProblem problem;
  problem.graph = &s->graph;
  problem.tunnels = &s->tunnels;
  problem.traffic = &measured;
  te::MegaTeSolver solver;
  te::TeSolution sol = solver.solve(problem, {}).solution;
  te::CheckOptions copt;
  copt.require_flow_assignment = true;
  EXPECT_TRUE(te::check_solution(problem, sol, copt).ok);
  EXPECT_GT(sol.satisfied_ratio(), 0.99)
      << "three small measured flows easily fit";
}

TEST(Telemetry, IngestAccumulatesAcrossCalls) {
  ctrl::TelemetryCollector collector;
  dataplane::InstancePairReport r;
  r.src_instance = tm::make_endpoint(1, 1);
  r.dst_ip = make_overlay_ip(2, 2);
  r.bytes = 100;
  collector.ingest({r});
  collector.ingest({r});
  EXPECT_EQ(collector.total_bytes(), 200u);
  EXPECT_EQ(collector.pairs_seen(), 1u);
}

TEST(TelemetryPinned, CollectedFlowsCarryClassTwo) {
  // Reporters carry no QoS marking: every collected flow is class 2.
  ctrl::TelemetryCollector collector;
  dataplane::InstancePairReport r;
  r.src_instance = tm::make_endpoint(1, 1);
  r.dst_ip = make_overlay_ip(2, 2);
  r.bytes = 1'000'000;
  collector.ingest({r});
  const tm::TrafficMatrix m = collector.finish_period();
  ASSERT_EQ(m.num_flows(), 1u);
  for (const auto& [pair, flows] : m.pairs()) {
    for (const tm::EndpointDemand& f : flows) {
      EXPECT_EQ(f.qos, tm::QosClass::kClass2);
    }
  }
}

}  // namespace
}  // namespace megate

// End-to-end integration: topology -> endpoints -> traffic -> MegaTE
// two-stage solve -> controller publish -> agent pull -> host-stack SR
// encapsulation -> router-by-router forwarding along the chosen tunnel.
// This is the full control loop of Fig. 3(b) exercised in one process.

#include <gtest/gtest.h>

#include "megate/ctrl/agent.h"
#include "megate/ctrl/controller.h"
#include "megate/ctrl/kvstore.h"
#include "megate/dataplane/host_stack.h"
#include "megate/dataplane/router.h"
#include "megate/sim/failure_sim.h"
#include "megate/te/checker.h"
#include "megate/te/megate_solver.h"
#include "test_helpers.h"

namespace megate {
namespace {

using megate::testing::make_scenario;

struct AssignedFlow {
  topo::SitePair pair;
  tm::EndpointDemand demand;
  std::int32_t tunnel = -1;
};

/// An assigned flow whose (source instance, destination site) is unique,
/// so the controller's published route is exactly this flow's tunnel.
AssignedFlow first_assigned(const testing::Scenario& s,
                            const te::TeSolution& sol) {
  std::unordered_map<std::uint64_t, int> key_count;
  auto key_of = [](tm::EndpointId src, topo::NodeId dst_site) {
    return src * 1000003ull + dst_site;
  };
  for (const auto& [pair, flows] : s.traffic.pairs()) {
    for (const auto& f : flows) key_count[key_of(f.src, pair.dst)]++;
  }
  for (const auto& [pair, alloc] : sol.pairs) {
    auto it = s.traffic.pairs().find(pair);
    if (it == s.traffic.pairs().end()) continue;
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      if (alloc.flow_tunnel[i] >= 0 &&
          key_count[key_of(it->second[i].src, pair.dst)] == 1) {
        return {pair, it->second[i], alloc.flow_tunnel[i]};
      }
    }
  }
  return {};
}

TEST(Integration, FullControlLoopDeliversPacketsAlongChosenTunnel) {
  auto s = make_scenario(8, 14, 10, 0.2, 77);
  te::TeProblem problem = s->problem();

  // --- control plane: solve + publish -----------------------------------
  te::MegaTeSolver solver;
  te::TeSolution sol = solver.solve(problem, {}).solution;
  te::CheckOptions copt;
  copt.require_flow_assignment = true;
  ASSERT_TRUE(te::check_solution(problem, sol, copt).ok);

  ctrl::KvStore kv(2);
  ctrl::InProcessTransport db(&kv);
  ctrl::Controller controller(&db);
  controller.publish_solution(problem, sol);

  // --- pick one assigned flow and bring up its endpoint ------------------
  AssignedFlow flow = first_assigned(*s, sol);
  ASSERT_GE(flow.tunnel, 0) << "no flow assigned at this load";

  dataplane::HostStack stack;
  const dataplane::Pid pid = 4242;
  stack.on_sys_enter_execve(pid, flow.demand.src);
  dataplane::FiveTuple tuple;
  // Overlay IPs follow the library convention: destination site in the
  // top bits, so the TC program can pick the per-destination route.
  tuple.src_ip = dataplane::make_overlay_ip(
      tm::endpoint_site(flow.demand.src),
      tm::endpoint_index(flow.demand.src));
  tuple.dst_ip = dataplane::make_overlay_ip(
      tm::endpoint_site(flow.demand.dst),
      tm::endpoint_index(flow.demand.dst));
  tuple.proto = dataplane::kProtoUdp;
  tuple.src_port = 33333;
  tuple.dst_port = 443;
  stack.on_conntrack_event(tuple, pid);

  // --- bottom-up sync: the agent pulls the published route table ---------
  ctrl::AgentOptions aopt;
  aopt.poll_interval_s = 1.0;
  ctrl::EndpointAgent agent(flow.demand.src, &db, &stack, aopt);
  agent.tick(5.0);
  ASSERT_EQ(agent.applied_version(), kv.version());
  ASSERT_FALSE(agent.hops_for(flow.pair.dst).empty());

  // --- data plane: encapsulate and walk the routers ----------------------
  dataplane::Buffer frame;
  dataplane::EthernetHeader eth;
  eth.serialize(frame);
  dataplane::Ipv4Header ip;
  ip.protocol = dataplane::kProtoUdp;
  ip.src_ip = tuple.src_ip;
  ip.dst_ip = tuple.dst_ip;
  ip.total_length =
      dataplane::kIpv4HeaderSize + dataplane::kUdpHeaderSize + 32;
  ip.serialize(frame);
  dataplane::UdpHeader udp;
  udp.src_port = tuple.src_port;
  udp.dst_port = tuple.dst_port;
  udp.length = dataplane::kUdpHeaderSize + 32;
  udp.serialize(frame);
  frame.insert(frame.end(), 32, 0x55);

  auto verdict = stack.tc_egress(frame, 0x0A0A0A0A);
  ASSERT_EQ(verdict.action, dataplane::TcVerdict::Action::kEncapsulated);

  // The SR hop list must equal the chosen tunnel's site sequence.
  const auto& tunnel =
      s->tunnels.tunnels(flow.pair.src, flow.pair.dst)[flow.tunnel];
  std::vector<std::uint32_t> expected_hops;
  for (topo::EdgeId e : tunnel.links) {
    expected_hops.push_back(s->graph.link(e).dst);
  }
  EXPECT_EQ(agent.hops_for(flow.pair.dst), expected_hops);

  // Walk the packet through the routers of the hop list: each segment
  // router advances the offset and points at the next segment; the final
  // segment (the destination site) delivers locally.
  dataplane::Buffer pkt = verdict.packet;
  for (std::size_t hop = 0; hop < expected_hops.size(); ++hop) {
    dataplane::Router router(expected_hops[hop], 4);
    auto d = router.forward(pkt);
    if (hop + 1 < expected_hops.size()) {
      ASSERT_EQ(d.kind, dataplane::ForwardDecision::Kind::kSegmentRouted);
      EXPECT_EQ(d.next_hop, expected_hops[hop + 1]);
    } else {
      ASSERT_EQ(d.kind, dataplane::ForwardDecision::Kind::kDeliverLocal);
      EXPECT_EQ(d.next_hop, flow.pair.dst);
    }
    pkt = d.packet;
  }

  // --- telemetry: the stack accounted the flow to the right instance -----
  auto report = stack.collect_flow_report();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].instance, flow.demand.src);
  EXPECT_EQ(report[0].packets, 1u);
}

TEST(Integration, FailureRecomputePublishesNewPaths) {
  auto s = make_scenario(9, 16, 10, 0.25, 31);
  te::TeProblem problem = s->problem();
  te::MegaTeSolver solver;
  te::TeSolution before = solver.solve(problem, {}).solution;

  ctrl::KvStore kv(2);
  ctrl::InProcessTransport db(&kv);
  ctrl::Controller controller(&db);
  controller.publish_solution(problem, before);
  const ctrl::Version v1 = kv.version();

  // Fail links, repair tunnels, re-solve, republish.
  auto events = topo::inject_link_failures(s->graph, 2, 5);
  ASSERT_FALSE(events.empty());
  topo::repair_tunnels(s->graph, s->tunnels);
  te::TeSolution after = solver.solve(problem, {}).solution;
  te::CheckOptions copt;
  copt.require_flow_assignment = true;
  EXPECT_TRUE(te::check_solution(problem, after, copt).ok);
  controller.publish_solution(problem, after);
  EXPECT_GT(kv.version(), v1);

  // An agent that polls after the republish converges to the new version.
  ctrl::AgentOptions aopt;
  aopt.poll_interval_s = 1.0;
  ctrl::EndpointAgent agent(1, &db, nullptr, aopt);
  agent.tick(3.0);
  EXPECT_EQ(agent.applied_version(), kv.version());
  topo::restore_failures(s->graph, events);
}

TEST(Integration, EndToEndMetricsConsistency) {
  auto s = make_scenario(8, 14, 15, 0.35, 13);
  te::TeProblem problem = s->problem();
  te::MegaTeSolver solver;
  te::TeSolution sol = solver.solve(problem, {}).solution;

  // satisfied_gbps equals the sum over assigned flows.
  double manual = 0.0;
  for (const auto& [pair, alloc] : sol.pairs) {
    auto it = s->traffic.pairs().find(pair);
    if (it == s->traffic.pairs().end()) continue;
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      if (alloc.flow_tunnel[i] >= 0) manual += it->second[i].demand_gbps;
    }
  }
  EXPECT_NEAR(manual, sol.satisfied_gbps, 1e-6);
  // tunnel_alloc sums match assigned flow sums (aggregate consistency).
  for (const auto& [pair, alloc] : sol.pairs) {
    double from_allocs = 0.0;
    for (double f : alloc.tunnel_alloc) from_allocs += f;
    double from_flows = 0.0;
    auto it = s->traffic.pairs().find(pair);
    if (it == s->traffic.pairs().end()) continue;
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      if (alloc.flow_tunnel[i] >= 0) from_flows += it->second[i].demand_gbps;
    }
    EXPECT_NEAR(from_allocs, from_flows, 1e-6);
  }
}

}  // namespace
}  // namespace megate

// Robustness suite: adversarial and malformed inputs that must be
// rejected cleanly (no crash, no UB) — deterministic random-buffer fuzz
// of the packet parsers and router, truncation/bit-flip sweeps of valid
// packets, degenerate LP/SSP instances, and checker tolerance edges.

#include <gtest/gtest.h>

#include <cmath>

#include "megate/dataplane/host_stack.h"
#include "megate/dataplane/router.h"
#include "megate/lp/simplex.h"
#include "megate/ssp/fast_ssp.h"
#include "megate/te/checker.h"
#include "megate/te/megate_solver.h"
#include "megate/util/rng.h"
#include "test_helpers.h"

namespace megate {
namespace {

using dataplane::Buffer;
using dataplane::ConstBytes;

Buffer valid_sr_packet() {
  using namespace dataplane;
  HostStack hs;
  hs.on_sys_enter_execve(1, 99);
  FiveTuple t;
  t.src_ip = make_overlay_ip(1, 2);
  t.dst_ip = make_overlay_ip(3, 4);
  t.proto = kProtoUdp;
  t.src_port = 1111;
  t.dst_port = 2222;
  hs.on_conntrack_event(t, 1);
  hs.install_route(99, 3, {5, 3});
  Buffer inner;
  EthernetHeader eth;
  eth.serialize(inner);
  Ipv4Header ip;
  ip.protocol = kProtoUdp;
  ip.src_ip = t.src_ip;
  ip.dst_ip = t.dst_ip;
  ip.total_length = kIpv4HeaderSize + kUdpHeaderSize + 8;
  ip.serialize(inner);
  UdpHeader udp;
  udp.src_port = t.src_port;
  udp.dst_port = t.dst_port;
  udp.length = kUdpHeaderSize + 8;
  udp.serialize(inner);
  inner.insert(inner.end(), 8, 0x42);
  auto v = hs.tc_egress(inner, 0x01020304);
  EXPECT_EQ(v.action, TcVerdict::Action::kEncapsulated);
  return v.packet;
}

// --- random-buffer fuzz --------------------------------------------------

TEST(Fuzz, RandomBuffersNeverCrashParsers) {
  util::Rng rng(0xF0CC);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t len = rng.uniform_int(0, 256);
    Buffer buf(len);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
    // Every parser must either produce a value or reject; never crash.
    (void)dataplane::EthernetHeader::parse(buf);
    (void)dataplane::Ipv4Header::parse(buf);
    (void)dataplane::UdpHeader::parse(buf);
    (void)dataplane::VxlanHeader::parse(buf);
    (void)dataplane::SrHeader::parse(buf);
  }
}

TEST(Fuzz, RandomBuffersThroughRouterAndHost) {
  util::Rng rng(0xF0CD);
  dataplane::Router router(3, 4);
  dataplane::HostStack hs;
  std::size_t drops = 0, total = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t len = rng.uniform_int(0, 192);
    Buffer buf(len);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
    auto d = router.forward(buf);
    drops += d.kind == dataplane::ForwardDecision::Kind::kDrop;
    ++total;
    (void)hs.tc_egress(buf, 1);
    (void)hs.vtep_ingress(buf);
  }
  // Random bytes essentially never form a valid IPv4 checksum: virtually
  // everything must be dropped.
  EXPECT_GT(drops, total * 95 / 100);
}

TEST(Fuzz, TruncationSweepOnValidPacket) {
  const Buffer pkt = valid_sr_packet();
  dataplane::Router router(5, 4);
  dataplane::HostStack hs;
  for (std::size_t len = 0; len < pkt.size(); ++len) {
    ConstBytes prefix(pkt.data(), len);
    (void)router.forward(prefix);   // must not crash at any cut point
    (void)hs.vtep_ingress(prefix);
  }
  // The untruncated packet still parses.
  EXPECT_NE(router.forward(pkt).kind,
            dataplane::ForwardDecision::Kind::kDrop);
}

TEST(Fuzz, ByteFlipSweepOnValidPacket) {
  const Buffer pkt = valid_sr_packet();
  dataplane::Router router(5, 4);
  for (std::size_t pos = 0; pos < pkt.size(); ++pos) {
    Buffer mutated = pkt;
    mutated[pos] ^= 0xFF;
    (void)router.forward(mutated);  // any verdict is fine; no crash/UB
  }
}

TEST(Fuzz, SrHeaderHopCountBoundary) {
  // kSrMaxHops accepted, kSrMaxHops+1 rejected.
  dataplane::SrHeader h;
  h.offset = 0;
  h.hops.assign(dataplane::kSrMaxHops, 7);
  Buffer b;
  EXPECT_TRUE(h.serialize(b));
  EXPECT_TRUE(dataplane::SrHeader::parse(b).has_value());
  Buffer oversized;
  oversized.push_back(dataplane::kSrMaxHops + 1);
  oversized.push_back(0);
  oversized.push_back(0);
  oversized.push_back(0);
  for (std::size_t i = 0; i <= dataplane::kSrMaxHops; ++i) {
    dataplane::put_u32(oversized, 7);
  }
  EXPECT_FALSE(dataplane::SrHeader::parse(oversized).has_value());
}

// --- degenerate optimization inputs ------------------------------------

TEST(DegenerateLp, ManyTiedColumns) {
  // 50 identical columns on one row: any split is optimal; the simplex
  // must terminate (Bland's rule) and fill the row exactly.
  lp::Model m;
  const auto row = m.add_constraint(10.0);
  for (int i = 0; i < 50; ++i) {
    const auto x = m.add_variable(1.0);
    m.add_coefficient(row, x, 1.0);
  }
  auto sol = lp::SimplexSolver().solve(m);
  ASSERT_EQ(sol.status, lp::Status::kOptimal);
  EXPECT_NEAR(sol.objective, 10.0, 1e-9);
}

TEST(DegenerateLp, ZeroObjectiveEverywhere) {
  lp::Model m;
  const auto row = m.add_constraint(5.0);
  const auto x = m.add_variable(0.0);
  m.add_coefficient(row, x, 1.0);
  auto sol = lp::SimplexSolver().solve(m);
  ASSERT_EQ(sol.status, lp::Status::kOptimal);
  EXPECT_NEAR(sol.objective, 0.0, 1e-12);
}

TEST(DegenerateSsp, AllEqualItems) {
  std::vector<double> v(100, 1.0);
  auto sel = ssp::fast_ssp(v, 37.5);
  EXPECT_EQ(sel.indices.size(), 37u);
  EXPECT_NEAR(sel.total, 37.0, 1e-9);
}

TEST(DegenerateSsp, CapacityBelowSmallestItem) {
  std::vector<double> v{2.0, 3.0, 5.0};
  auto sel = ssp::fast_ssp(v, 1.0);
  EXPECT_TRUE(sel.indices.empty());
  EXPECT_DOUBLE_EQ(sel.total, 0.0);
}

TEST(DegenerateSsp, SingleItemExactFit) {
  std::vector<double> v{7.0};
  auto sel = ssp::fast_ssp(v, 7.0);
  ASSERT_EQ(sel.indices.size(), 1u);
  EXPECT_DOUBLE_EQ(sel.total, 7.0);
}

TEST(DegenerateSsp, HugeValueSpread) {
  // 1e-6 .. 1e3 in one instance: clustering must bridge 9 decades.
  std::vector<double> v;
  for (int e = -6; e <= 3; ++e) v.push_back(std::pow(10.0, e));
  auto sel = ssp::fast_ssp(v, 1500.0);
  EXPECT_LE(sel.total, 1500.0);
  EXPECT_GT(sel.total, 1100.0);  // the 1e3 item must be taken
}

// --- solver edge conditions -------------------------------------------

TEST(SolverEdge, EmptyTrafficMatrix) {
  auto s = megate::testing::make_scenario(5, 8, 5);
  tm::TrafficMatrix empty;
  te::TeProblem p;
  p.graph = &s->graph;
  p.tunnels = &s->tunnels;
  p.traffic = &empty;
  te::MegaTeSolver solver;
  te::TeSolution sol = solver.solve(p, {}).solution;
  EXPECT_EQ(sol.satisfied_gbps, 0.0);
  EXPECT_TRUE(te::check_solution(p, sol).ok);
}

TEST(SolverEdge, AllLinksDown) {
  auto s = megate::testing::make_scenario(5, 8, 10, 0.2);
  for (topo::EdgeId e = 0; e < s->graph.num_links(); ++e) {
    s->graph.set_link_state(e, false);
  }
  te::MegaTeSolver solver;
  te::TeSolution sol = solver.solve(s->problem(), {}).solution;
  EXPECT_EQ(sol.satisfied_gbps, 0.0);
  auto res = te::check_solution(s->problem(), sol);
  EXPECT_TRUE(res.ok);
}

TEST(SolverEdge, SingleFlowLargerThanAnyLink) {
  auto s = megate::testing::make_scenario(5, 8, 2, 0.01);
  // Add one impossible flow.
  tm::EndpointDemand monster;
  monster.src = tm::make_endpoint(0, 0);
  monster.dst = tm::make_endpoint(1, 0);
  monster.demand_gbps = 1e9;
  s->traffic.add(monster);
  te::MegaTeSolver solver;
  te::TeSolution sol = solver.solve(s->problem(), {}).solution;
  auto res = te::check_solution(s->problem(), sol);
  EXPECT_TRUE(res.ok) << "monster flow must be rejected, not squeezed in";
  EXPECT_LT(sol.satisfied_gbps, 1e9);
}

TEST(SolverEdge, CheckerToleranceBoundary) {
  auto s = megate::testing::make_scenario(4, 6, 5);
  const auto& [pair, flows] = *s->traffic.pairs().begin();
  const auto& ts = s->tunnels.tunnels(pair.src, pair.dst);
  ASSERT_FALSE(ts.empty());
  // Allocation exactly at capacity: fine. A hair above tolerance: flagged.
  double min_cap = 1e18;
  for (topo::EdgeId e : ts[0].links) {
    min_cap = std::min(min_cap, s->graph.link(e).capacity_gbps);
  }
  te::TeSolution sol;
  te::PairAllocation alloc;
  alloc.tunnel_alloc.assign(ts.size(), 0.0);
  alloc.tunnel_alloc[0] = min_cap;
  sol.pairs[pair] = alloc;
  EXPECT_TRUE(te::check_solution(s->problem(), sol).ok);
  sol.pairs[pair].tunnel_alloc[0] = min_cap * 1.001;
  EXPECT_FALSE(te::check_solution(s->problem(), sol).ok);
}

}  // namespace
}  // namespace megate

// Tests for megate::dataplane — byte-exact codecs (Ethernet/IPv4/UDP/
// VXLAN/SR), eBPF map semantics, the §5.1 host stack (instance
// identification, flow collection, fragmentation) and the §5.2 router.

#include <gtest/gtest.h>

#include <cstdint>

#include "megate/dataplane/ebpf.h"
#include "megate/dataplane/host_stack.h"
#include "megate/dataplane/packet.h"
#include "megate/dataplane/router.h"
#include "megate/dataplane/sr_header.h"
#include "megate/dataplane/vxlan.h"

namespace megate::dataplane {
namespace {

Buffer make_inner_frame(const FiveTuple& t, std::size_t payload_len = 64,
                        std::uint16_t ipid = 1, bool more_frags = false,
                        std::uint16_t frag_off = 0) {
  Buffer b;
  EthernetHeader eth;
  eth.serialize(b);
  Ipv4Header ip;
  ip.protocol = t.proto;
  ip.src_ip = t.src_ip;
  ip.dst_ip = t.dst_ip;
  ip.identification = ipid;
  ip.more_fragments = more_frags;
  ip.fragment_offset_8b = frag_off;
  const bool has_l4 = frag_off == 0;
  ip.total_length = static_cast<std::uint16_t>(
      kIpv4HeaderSize + (has_l4 ? kUdpHeaderSize : 0) + payload_len);
  ip.serialize(b);
  if (has_l4) {
    UdpHeader udp;
    udp.src_port = t.src_port;
    udp.dst_port = t.dst_port;
    udp.length = static_cast<std::uint16_t>(kUdpHeaderSize + payload_len);
    udp.serialize(b);
  }
  b.insert(b.end(), payload_len, 0xAB);
  return b;
}

FiveTuple tuple(std::uint16_t sport = 5555) {
  FiveTuple t;
  t.src_ip = 0x0A000002;
  t.dst_ip = 0x0A000003;
  t.proto = kProtoUdp;
  t.src_port = sport;
  t.dst_port = 80;
  return t;
}

// --- codecs ------------------------------------------------------------

TEST(Codec, EthernetRoundTrip) {
  EthernetHeader h;
  h.dst_mac = {1, 2, 3, 4, 5, 6};
  h.src_mac = {7, 8, 9, 10, 11, 12};
  h.ether_type = kEtherTypeIpv4;
  Buffer b;
  h.serialize(b);
  ASSERT_EQ(b.size(), kEthernetHeaderSize);
  auto p = EthernetHeader::parse(b);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->dst_mac, h.dst_mac);
  EXPECT_EQ(p->src_mac, h.src_mac);
  EXPECT_EQ(p->ether_type, h.ether_type);
}

TEST(Codec, EthernetTruncated) {
  Buffer b(kEthernetHeaderSize - 1, 0);
  EXPECT_FALSE(EthernetHeader::parse(b).has_value());
}

TEST(Codec, Ipv4RoundTripWithChecksum) {
  Ipv4Header h;
  h.dscp = 10;
  h.total_length = 120;
  h.identification = 0xBEEF;
  h.more_fragments = true;
  h.fragment_offset_8b = 185;
  h.ttl = 17;
  h.protocol = kProtoTcp;
  h.src_ip = 0xC0A80101;
  h.dst_ip = 0x08080808;
  Buffer b;
  h.serialize(b);
  b.resize(200);  // pretend the payload follows
  auto p = Ipv4Header::parse(b);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->dscp, h.dscp);
  EXPECT_EQ(p->identification, h.identification);
  EXPECT_TRUE(p->more_fragments);
  EXPECT_EQ(p->fragment_offset_8b, h.fragment_offset_8b);
  EXPECT_EQ(p->src_ip, h.src_ip);
  EXPECT_EQ(p->dst_ip, h.dst_ip);
}

TEST(Codec, Ipv4RejectsCorruptedChecksum) {
  Ipv4Header h;
  h.total_length = 40;
  Buffer b;
  h.serialize(b);
  b.resize(40);
  b[12] ^= 0xFF;  // corrupt src ip
  EXPECT_FALSE(Ipv4Header::parse(b).has_value());
}

TEST(Codec, Ipv4RejectsWrongVersionAndLength) {
  Ipv4Header h;
  h.total_length = 20;
  Buffer b;
  h.serialize(b);
  Buffer bad = b;
  bad[0] = 0x65;  // version 6
  EXPECT_FALSE(Ipv4Header::parse(bad).has_value());
  Buffer trunc(b.begin(), b.begin() + 10);
  EXPECT_FALSE(Ipv4Header::parse(trunc).has_value());
}

TEST(Codec, Ipv4FragmentPredicates) {
  Ipv4Header h;
  EXPECT_FALSE(h.is_fragment());
  h.more_fragments = true;
  EXPECT_TRUE(h.first_fragment());
  h.fragment_offset_8b = 10;
  EXPECT_TRUE(h.is_fragment());
  EXPECT_FALSE(h.first_fragment());
}

TEST(Codec, ChecksumKnownVector) {
  // RFC 1071 example bytes.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  const std::uint16_t sum = internet_checksum(data);
  // Verify the defining property instead of a magic constant: appending
  // the checksum makes the total sum 0xFFFF (i.e. checksum of all = 0).
  Buffer with_sum(data, data + sizeof(data));
  with_sum.push_back(static_cast<std::uint8_t>(sum >> 8));
  with_sum.push_back(static_cast<std::uint8_t>(sum));
  EXPECT_EQ(internet_checksum(with_sum), 0);
}

TEST(Codec, UdpRoundTrip) {
  UdpHeader h;
  h.src_port = 1234;
  h.dst_port = 4789;
  h.length = 100;
  Buffer b;
  h.serialize(b);
  auto p = UdpHeader::parse(b);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->src_port, 1234);
  EXPECT_EQ(p->dst_port, 4789);
  EXPECT_EQ(p->length, 100);
}

TEST(Codec, UdpRejectsShortLength) {
  UdpHeader h;
  h.length = 4;  // < header size
  Buffer b;
  h.serialize(b);
  EXPECT_FALSE(UdpHeader::parse(b).has_value());
}

TEST(Codec, VxlanRoundTripWithSrFlag) {
  for (bool sr : {false, true}) {
    VxlanHeader h;
    h.vni = 0xABCDEF;
    h.megate_sr = sr;
    Buffer b;
    h.serialize(b);
    ASSERT_EQ(b.size(), kVxlanHeaderSize);
    auto p = VxlanHeader::parse(b);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->vni, 0xABCDEFu);
    EXPECT_EQ(p->megate_sr, sr);
    EXPECT_TRUE(p->valid_vni);
  }
}

TEST(Codec, SrHeaderRoundTrip) {
  SrHeader h;
  h.offset = 2;
  h.hops = {10, 20, 30, 40};
  Buffer b;
  ASSERT_TRUE(h.serialize(b));
  ASSERT_EQ(b.size(), h.wire_size());
  auto p = SrHeader::parse(b);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->offset, 2);
  EXPECT_EQ(p->hops, h.hops);
  EXPECT_EQ(p->next_hop(), 30u);
  EXPECT_FALSE(p->at_last_hop());
}

TEST(Codec, SrHeaderRejectsMalformed) {
  EXPECT_FALSE(SrHeader::parse(Buffer{}).has_value());
  Buffer zero_hops{0, 0, 0, 0};
  EXPECT_FALSE(SrHeader::parse(zero_hops).has_value());
  Buffer offset_past{2, 3, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2};
  EXPECT_FALSE(SrHeader::parse(offset_past).has_value());
  Buffer truncated{4, 0, 0, 0, 0, 0, 0, 1};  // claims 4 hops, has 1
  EXPECT_FALSE(SrHeader::parse(truncated).has_value());
}

// --- eBPF map ------------------------------------------------------------

TEST(EbpfMap, BasicSemantics) {
  EbpfMap<int, int> m(2);
  EXPECT_TRUE(m.update(1, 10));
  EXPECT_TRUE(m.update(2, 20));
  EXPECT_FALSE(m.update(3, 30)) << "full map rejects new keys";
  EXPECT_TRUE(m.update(1, 11)) << "overwrite allowed when full";
  EXPECT_EQ(m.lookup(1), 11);
  EXPECT_EQ(m.lookup(3), std::nullopt);
  EXPECT_TRUE(m.erase(2));
  EXPECT_FALSE(m.erase(2));
  EXPECT_TRUE(m.update(3, 30));
  EXPECT_EQ(m.size(), 2u);
}

TEST(EbpfMap, UpdateInPlace) {
  EbpfMap<int, int> m(4);
  m.update(1, 5);
  EXPECT_TRUE(m.update_in_place(1, [](int& v) { v += 7; }));
  EXPECT_EQ(m.lookup(1), 12);
  EXPECT_FALSE(m.update_in_place(9, [](int&) {}));
}

// --- host stack ----------------------------------------------------------

TEST(HostStack, InstanceIdentificationJoin) {
  HostStack hs;
  hs.on_sys_enter_execve(/*pid=*/100, /*instance=*/777);
  const FiveTuple t = tuple();
  hs.on_conntrack_event(t, 100);
  EXPECT_EQ(hs.instance_of(t), 777u);
}

TEST(HostStack, UnknownPidLeavesNoMapping) {
  HostStack hs;
  const FiveTuple t = tuple();
  hs.on_conntrack_event(t, 999);  // no execve seen for pid 999
  EXPECT_EQ(hs.instance_of(t), std::nullopt);
}

TEST(HostStack, TrafficAccounting) {
  HostStack hs;
  const FiveTuple t = tuple();
  Buffer frame = make_inner_frame(t, 100);
  hs.tc_egress(frame, 0x0A0000FF);
  hs.tc_egress(frame, 0x0A0000FF);
  auto stats = hs.stats_of(t);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->packets, 2u);
  EXPECT_EQ(stats->bytes, 2 * frame.size());
}

TEST(HostStack, FragmentAttribution) {
  HostStack hs;
  const FiveTuple t = tuple();
  // First fragment: carries L4 ports and registers ipid 42.
  Buffer first = make_inner_frame(t, 100, 42, /*more=*/true, /*off=*/0);
  hs.tc_egress(first, 0);
  EXPECT_EQ(hs.frag_map_size(), 1u);
  // Middle + last fragments carry no L4 header.
  Buffer mid = make_inner_frame(t, 100, 42, /*more=*/true, /*off=*/19);
  Buffer last = make_inner_frame(t, 60, 42, /*more=*/false, /*off=*/38);
  hs.tc_egress(mid, 0);
  hs.tc_egress(last, 0);
  auto stats = hs.stats_of(t);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->packets, 3u) << "all fragments attributed to the flow";
  // The last fragment no longer erases eagerly (fragments may arrive out
  // of order); the entry is reclaimed by generation expiry after staying
  // idle for one full collection period.
  EXPECT_EQ(hs.frag_map_size(), 1u) << "entry survives until expiry";
  hs.collect_flow_report(/*reset=*/true);  // touched this period: survives
  EXPECT_EQ(hs.frag_map_size(), 1u);
  hs.collect_flow_report(/*reset=*/true);  // idle a full period: reclaimed
  EXPECT_EQ(hs.frag_map_size(), 0u) << "stale entry expired";
  EXPECT_EQ(hs.counters().frag_entries_expired, 1u);
}

TEST(HostStack, UnknownFragmentIgnored) {
  HostStack hs;
  const FiveTuple t = tuple();
  Buffer orphan = make_inner_frame(t, 100, 7, /*more=*/true, /*off=*/19);
  hs.tc_egress(orphan, 0);
  EXPECT_EQ(hs.stats_of(t), std::nullopt);
}

TEST(HostStack, PassesWhenNoPathInstalled) {
  HostStack hs;
  Buffer frame = make_inner_frame(tuple());
  auto v = hs.tc_egress(frame, 0);
  EXPECT_EQ(v.action, TcVerdict::Action::kPass);
  EXPECT_EQ(v.packet, frame);
}

TEST(HostStack, DropsMalformedFrames) {
  HostStack hs;
  Buffer junk(10, 0xFF);
  EXPECT_EQ(hs.tc_egress(junk, 0).action,
            TcVerdict::Action::kDropMalformed);
  Buffer eth_only;
  EthernetHeader eth;
  eth.ether_type = 0x86DD;  // IPv6: unsupported
  eth.serialize(eth_only);
  EXPECT_EQ(hs.tc_egress(eth_only, 0).action,
            TcVerdict::Action::kDropMalformed);
}

TEST(HostStack, EncapsulatesWithSrHeader) {
  HostStack hs;
  hs.on_sys_enter_execve(100, 777);
  const FiveTuple t = tuple();
  hs.on_conntrack_event(t, 100);
  hs.install_route(777, kAnyDstSite, {5, 9, 13});

  Buffer frame = make_inner_frame(t, 50);
  auto v = hs.tc_egress(frame, 0x0A0000FE);
  ASSERT_EQ(v.action, TcVerdict::Action::kEncapsulated);

  // Outer headers parse and carry the SR flag + hops.
  auto eth = EthernetHeader::parse(v.packet);
  ASSERT_TRUE(eth.has_value());
  ConstBytes rest = ConstBytes(v.packet).subspan(kEthernetHeaderSize);
  auto ip = Ipv4Header::parse(rest);
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->dst_ip, 0x0A0000FEu);
  rest = rest.subspan(kIpv4HeaderSize);
  auto udp = UdpHeader::parse(rest);
  ASSERT_TRUE(udp.has_value());
  EXPECT_EQ(udp->dst_port, kVxlanPort);
  rest = rest.subspan(kUdpHeaderSize);
  auto vx = VxlanHeader::parse(rest);
  ASSERT_TRUE(vx.has_value());
  EXPECT_TRUE(vx->megate_sr);
  rest = rest.subspan(kVxlanHeaderSize);
  auto sr = SrHeader::parse(rest);
  ASSERT_TRUE(sr.has_value());
  EXPECT_EQ(sr->hops, (std::vector<std::uint32_t>{5, 9, 13}));
  EXPECT_EQ(sr->offset, 0);
  // The inner frame rides behind the SR header, byte-identical.
  rest = rest.subspan(sr->wire_size());
  EXPECT_TRUE(std::equal(frame.begin(), frame.end(), rest.begin()));
}

TEST(HostStack, UninstallRevertsToPass) {
  HostStack hs;
  hs.on_sys_enter_execve(1, 10);
  const FiveTuple t = tuple();
  hs.on_conntrack_event(t, 1);
  hs.install_route(10, kAnyDstSite, {2});
  Buffer frame = make_inner_frame(t);
  EXPECT_EQ(hs.tc_egress(frame, 0).action,
            TcVerdict::Action::kEncapsulated);
  hs.install_route(10, kAnyDstSite, {});
  EXPECT_EQ(hs.tc_egress(frame, 0).action, TcVerdict::Action::kPass);
}

TEST(HostStack, FlowReportJoinsAndAggregates) {
  HostStack hs;
  hs.on_sys_enter_execve(1, 42);
  const FiveTuple t1 = tuple(1000);
  const FiveTuple t2 = tuple(2000);
  hs.on_conntrack_event(t1, 1);
  hs.on_conntrack_event(t2, 1);
  Buffer f1 = make_inner_frame(t1, 10);
  Buffer f2 = make_inner_frame(t2, 30);
  hs.tc_egress(f1, 0);
  hs.tc_egress(f2, 0);
  auto report = hs.collect_flow_report();
  ASSERT_EQ(report.size(), 1u);  // both flows belong to instance 42
  EXPECT_EQ(report[0].instance, 42u);
  EXPECT_EQ(report[0].packets, 2u);
  EXPECT_EQ(report[0].bytes, f1.size() + f2.size());
  // Reset semantics: the next report is empty.
  EXPECT_TRUE(hs.collect_flow_report().empty());
}

TEST(HostStack, ReportSkipsUnattributedFlows) {
  HostStack hs;
  Buffer f = make_inner_frame(tuple());
  hs.tc_egress(f, 0);  // traffic but no conntrack/execve mapping
  EXPECT_TRUE(hs.collect_flow_report().empty());
}

// --- router ---------------------------------------------------------------

Buffer encapsulated_frame(HostStack& hs, const FiveTuple& t,
                          std::vector<std::uint32_t> hops) {
  hs.on_sys_enter_execve(1, 500);
  hs.on_conntrack_event(t, 1);
  hs.install_route(500, kAnyDstSite, std::move(hops));
  auto v = hs.tc_egress(make_inner_frame(t), 0x0A0000FE);
  EXPECT_EQ(v.action, TcVerdict::Action::kEncapsulated);
  return v.packet;
}

TEST(Router, FollowsSrHops) {
  HostStack hs;
  Buffer pkt = encapsulated_frame(hs, tuple(), {7, 8, 9});
  // Router 7 is the first segment: it advances the offset and points the
  // packet at the next segment (8); router 9 is the egress.
  Router r7(7, 4);
  auto d = r7.forward(pkt);
  ASSERT_EQ(d.kind, ForwardDecision::Kind::kSegmentRouted);
  EXPECT_EQ(d.next_hop, 8u);
  Router r8(8, 4);
  auto d2 = r8.forward(d.packet);
  ASSERT_EQ(d2.kind, ForwardDecision::Kind::kSegmentRouted);
  EXPECT_EQ(d2.next_hop, 9u);
  Router r9(9, 4);
  auto d3 = r9.forward(d2.packet);
  EXPECT_EQ(d3.kind, ForwardDecision::Kind::kDeliverLocal);
  EXPECT_EQ(d3.next_hop, 9u);
}

TEST(Router, TransitSiteForwardsWithoutAdvancing) {
  // A site that is not the current segment forwards toward the segment
  // without touching the offset (e.g. an intermediate underlay hop).
  HostStack hs;
  Buffer pkt = encapsulated_frame(hs, tuple(), {7, 9});
  Router transit(5, 4);
  auto d = transit.forward(pkt);
  ASSERT_EQ(d.kind, ForwardDecision::Kind::kSegmentRouted);
  EXPECT_EQ(d.next_hop, 7u);
  const std::size_t off_pos = kEthernetHeaderSize + kIpv4HeaderSize +
                              kUdpHeaderSize + kVxlanHeaderSize + 1;
  EXPECT_EQ(d.packet[off_pos], 0);
}

TEST(Router, EcmpForNonSrTraffic) {
  // An underlay packet without VXLAN/SR falls back to hashing.
  Buffer b;
  EthernetHeader eth;
  eth.serialize(b);
  Ipv4Header ip;
  ip.protocol = kProtoUdp;
  ip.total_length = kIpv4HeaderSize + kUdpHeaderSize;
  ip.src_ip = 1;
  ip.dst_ip = 2;
  ip.serialize(b);
  UdpHeader udp;
  udp.src_port = 9999;
  udp.dst_port = 53;  // not the VXLAN port
  udp.serialize(b);
  Router r(0, 4);
  auto d = r.forward(b);
  ASSERT_EQ(d.kind, ForwardDecision::Kind::kEcmpHashed);
  EXPECT_LT(d.next_hop, 4u);
  // Same five-tuple -> same bucket (flow affinity).
  EXPECT_EQ(r.forward(b).next_hop, d.next_hop);
}

TEST(Router, EcmpHashStableAndSpread) {
  std::uint32_t buckets[4] = {0, 0, 0, 0};
  for (std::uint16_t p = 0; p < 400; ++p) {
    FiveTuple t = tuple(p);
    const std::uint32_t b = Router::ecmp_hash(t, 4);
    ASSERT_LT(b, 4u);
    buckets[b]++;
    EXPECT_EQ(Router::ecmp_hash(t, 4), b);
  }
  for (std::uint32_t c : buckets) EXPECT_GT(c, 40u) << "hash badly skewed";
}

TEST(Router, DropsMalformed) {
  Router r(0, 4);
  EXPECT_EQ(r.forward(Buffer(5, 0)).kind, ForwardDecision::Kind::kDrop);
}

TEST(Router, SrOffsetAdvancesOnWire) {
  HostStack hs;
  Buffer pkt = encapsulated_frame(hs, tuple(), {3, 4});
  Router r(3, 2);  // the current segment: advances the offset
  auto d = r.forward(pkt);
  const std::size_t off_pos = kEthernetHeaderSize + kIpv4HeaderSize +
                              kUdpHeaderSize + kVxlanHeaderSize + 1;
  EXPECT_EQ(pkt[off_pos], 0);
  EXPECT_EQ(d.packet[off_pos], 1);
  EXPECT_EQ(d.next_hop, 4u);
}

// --- pinned constants ------------------------------------------------------

/// FNV digest of one encapsulated packet, recorded at the commit before the
/// host stack's map size and underlay source port became constants.
constexpr std::uint64_t kPinnedEncap = 0x8edd7e3d76133fc2ULL;

TEST(HostStackPinned, EncapBytesAndMapCapacityMatchParent) {
  HostStack hs;
  hs.on_sys_enter_execve(100, 777);
  const FiveTuple t = tuple();
  hs.on_conntrack_event(t, 100);
  hs.install_route(777, kAnyDstSite, {5, 9, 13});
  const Buffer frame = make_inner_frame(t, 50);
  const auto v = hs.tc_egress(frame, 0x0A0000FE);
  ASSERT_EQ(v.action, TcVerdict::Action::kEncapsulated);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::uint8_t b : v.packet) h = (h ^ b) * 0x100000001B3ULL;
  EXPECT_EQ(h, kPinnedEncap) << std::hex << "got 0x" << h;

  // The traffic map holds 65,536 flows; the next new flow is dropped.
  HostStack full;
  for (std::uint32_t i = 0; i <= 65536; ++i) {
    FiveTuple f = tuple();
    f.src_ip = 0x0B000000u + i;
    full.tc_egress(make_inner_frame(f, 0), 0x0A0000FE);
  }
  EXPECT_EQ(full.counters().map_full_drops, 1u);
}

}  // namespace
}  // namespace megate::dataplane

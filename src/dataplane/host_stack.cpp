#include "megate/dataplane/host_stack.h"

#include <unordered_map>

namespace megate::dataplane {
namespace {

/// Capacity of every eBPF map (BPF max_entries).
constexpr std::size_t kMapEntries = 1 << 16;
/// Outer UDP source port of the VXLAN underlay.
constexpr std::uint16_t kUnderlaySrcPort = 49152;

}  // namespace

HostStack::HostStack(HostStackOptions options)
    : options_(options),
      env_map_(kMapEntries),
      contk_map_(kMapEntries),
      inf_map_(kMapEntries),
      traffic_map_(kMapEntries),
      frag_map_(kMapEntries),
      path_map_(kMapEntries) {}

void HostStack::on_sys_enter_execve(Pid pid, InstanceId instance) {
  env_map_.update(pid, instance);
}

void HostStack::on_conntrack_event(const FiveTuple& tuple, Pid pid) {
  contk_map_.update(tuple, pid);
  // Join env_map + contk_map -> inf_map (five-tuple -> instance id). The
  // paper performs this join inside the kprobe program itself.
  if (auto instance = env_map_.lookup(pid)) {
    inf_map_.update(tuple, *instance);
  }
}

std::optional<FiveTuple> HostStack::classify(const Ipv4Header& ip,
                                             ConstBytes l4) {
  if (!ip.is_fragment() || ip.first_fragment()) {
    // L4 header available (full packet or first fragment).
    FiveTuple t;
    t.src_ip = ip.src_ip;
    t.dst_ip = ip.dst_ip;
    t.proto = ip.protocol;
    if (ip.protocol == kProtoUdp || ip.protocol == kProtoTcp) {
      if (l4.size() < 4) return std::nullopt;
      t.src_port = read_u16(l4, 0);
      t.dst_port = read_u16(l4, 2);
    }
    if (ip.first_fragment()) {
      // Remember ipid -> tuple so later fragments can be attributed.
      if (!frag_map_.update(ip.identification, FragEntry{t, frag_gen_})) {
        ++counters_.map_full_drops;
      }
    }
    return t;
  }
  // Subsequent fragment: resolve via frag_map; unknown ipid means we
  // missed the first fragment — unattributable. The entry is deliberately
  // NOT erased on the last fragment: fragments may arrive out of order,
  // so middle fragments can still be in flight after the last one, and
  // the last fragment itself may be lost. Instead every hit refreshes the
  // entry's generation and expire_frag_entries() reclaims entries that
  // stayed idle for a full collection period.
  std::optional<FiveTuple> tuple;
  frag_map_.update_in_place(ip.identification, [&](FragEntry& e) {
    e.gen = frag_gen_;
    tuple = e.tuple;
  });
  return tuple;
}

void HostStack::expire_frag_entries() {
  // Reclaim entries untouched since the previous collection (their gen is
  // older than the current period). Two-phase because erasing while
  // iterating an EbpfMap is undefined.
  std::vector<std::uint16_t> stale;
  for (const auto& [ipid, entry] : frag_map_) {
    if (entry.gen < frag_gen_) stale.push_back(ipid);
  }
  for (std::uint16_t ipid : stale) frag_map_.erase(ipid);
  counters_.frag_entries_expired += stale.size();
  ++frag_gen_;
}

TcVerdict HostStack::tc_egress(ConstBytes frame,
                               std::uint32_t underlay_dst_ip) {
  TcVerdict verdict;
  auto eth = EthernetHeader::parse(frame);
  if (!eth || eth->ether_type != kEtherTypeIpv4) {
    verdict.action = TcVerdict::Action::kDropMalformed;
    verdict.drop_reason = DropReason::kBadEthernet;
    ++counters_.egress_malformed;
    ++counters_.egress_bad_ethernet;
    return verdict;
  }
  ConstBytes ip_bytes = frame.subspan(kEthernetHeaderSize);
  auto ip = Ipv4Header::parse(ip_bytes);
  if (!ip) {
    verdict.action = TcVerdict::Action::kDropMalformed;
    verdict.drop_reason = DropReason::kBadIpv4;
    ++counters_.egress_malformed;
    ++counters_.egress_bad_ipv4;
    return verdict;
  }
  const ConstBytes l4 = ip_bytes.subspan(kIpv4HeaderSize);

  // --- instance-level flow collection ---
  auto tuple = classify(*ip, l4);
  if (tuple) {
    const std::uint64_t wire_bytes = frame.size();
    if (!traffic_map_.update_in_place(*tuple, [&](FlowStats& s) {
          s.bytes += wire_bytes;
          s.packets += 1;
        })) {
      if (!traffic_map_.update(*tuple, FlowStats{wire_bytes, 1})) {
        ++counters_.map_full_drops;
      }
    }
  } else {
    ++counters_.unattributed_packets;
  }

  // --- segment routing insertion ---
  std::optional<InstanceId> instance;
  if (tuple) instance = inf_map_.lookup(*tuple);
  std::optional<std::vector<std::uint32_t>> hops;
  if (instance) {
    // Per-destination-site route first, then the wildcard route.
    hops = path_map_.lookup(
        RouteKey{*instance, overlay_ip_site(ip->dst_ip)});
    if (!hops) hops = path_map_.lookup(RouteKey{*instance, kAnyDstSite});
  }

  if (!hops || hops->empty()) {
    // No TE decision installed: hand the frame on unmodified (it will be
    // five-tuple hashed by the WAN edge, i.e. conventional TE). This is
    // the only egress path that passes by design; it gets its own counter
    // so it can never be confused with an encap failure.
    verdict.action = TcVerdict::Action::kPass;
    verdict.packet.assign(frame.begin(), frame.end());
    ++counters_.egress_passed;
    ++counters_.egress_no_route;
    return verdict;
  }

  // Build outer Ethernet/IPv4/UDP/VXLAN(+SR) encapsulation around the
  // whole inner frame (Fig. 7a).
  SrHeader sr;
  sr.offset = 0;
  sr.hops = *hops;
  if (!sr.valid()) {
    // An installed — i.e. *planned* — route the SR header cannot carry
    // (e.g. > kSrMaxHops). The planner promised this route; silently
    // passing here would black-hole the TE decision while every counter
    // reads healthy. Drop loudly instead: the plan/encap contract is the
    // planner's to keep (the tunnel set's max_sr_hops), and a violation
    // must surface as a drop, not as conventional routing.
    ++counters_.sr_serialize_errors;
    ++counters_.egress_route_drops;
    verdict.action = TcVerdict::Action::kDropMalformed;
    verdict.drop_reason = DropReason::kSrTooLong;
    return verdict;
  }

  VxlanHeader vxlan;
  vxlan.vni = options_.vni;
  vxlan.megate_sr = true;

  Buffer out;
  out.reserve(kEthernetHeaderSize + kIpv4HeaderSize + kUdpHeaderSize +
              kVxlanHeaderSize + sr.wire_size() + frame.size());

  EthernetHeader outer_eth;
  outer_eth.ether_type = kEtherTypeIpv4;
  outer_eth.serialize(out);

  const std::size_t payload = kUdpHeaderSize + kVxlanHeaderSize +
                              sr.wire_size() + frame.size();
  Ipv4Header outer_ip;
  outer_ip.protocol = kProtoUdp;
  outer_ip.total_length =
      static_cast<std::uint16_t>(kIpv4HeaderSize + payload);
  outer_ip.src_ip = options_.host_ip;
  outer_ip.dst_ip = underlay_dst_ip;
  outer_ip.identification = static_cast<std::uint16_t>(ip->identification);
  outer_ip.serialize(out);

  UdpHeader outer_udp;
  outer_udp.src_port = kUnderlaySrcPort;
  outer_udp.dst_port = kVxlanPort;
  outer_udp.length = static_cast<std::uint16_t>(payload);
  outer_udp.serialize(out);

  vxlan.serialize(out);
  // Cannot fail: sr.valid() was checked before building the outer frame.
  const bool ok = sr.serialize(out);
  (void)ok;
  out.insert(out.end(), frame.begin(), frame.end());

  verdict.action = TcVerdict::Action::kEncapsulated;
  verdict.packet = std::move(out);
  ++counters_.egress_encapsulated;
  return verdict;
}

HostStack::IngressResult HostStack::vtep_ingress(ConstBytes underlay_frame) {
  IngressResult res;
  const auto drop = [&](DropReason reason) -> IngressResult& {
    res.action = IngressResult::Action::kDropMalformed;
    res.drop_reason = reason;
    ++counters_.ingress_malformed;
    switch (reason) {
      case DropReason::kBadEthernet: ++counters_.ingress_bad_ethernet; break;
      case DropReason::kBadIpv4: ++counters_.ingress_bad_ipv4; break;
      case DropReason::kBadUdp: ++counters_.ingress_bad_udp; break;
      case DropReason::kBadVxlan: ++counters_.ingress_bad_vxlan; break;
      case DropReason::kBadSrHeader: ++counters_.ingress_bad_sr; break;
      case DropReason::kBadInner: ++counters_.ingress_bad_inner; break;
      // kSrTooLong is an egress verdict; ingress never reports it.
      case DropReason::kNone:
      case DropReason::kSrTooLong: break;
    }
    return res;
  };
  auto eth = EthernetHeader::parse(underlay_frame);
  if (!eth || eth->ether_type != kEtherTypeIpv4) {
    return drop(DropReason::kBadEthernet);
  }
  ConstBytes rest = underlay_frame.subspan(kEthernetHeaderSize);
  auto ip = Ipv4Header::parse(rest);
  if (!ip) return drop(DropReason::kBadIpv4);
  if (ip->protocol != kProtoUdp) {
    res.action = IngressResult::Action::kNotVxlan;
    ++counters_.ingress_not_vxlan;
    return res;
  }
  rest = rest.subspan(kIpv4HeaderSize);
  auto udp = UdpHeader::parse(rest);
  if (!udp) return drop(DropReason::kBadUdp);
  if (udp->dst_port != kVxlanPort) {
    res.action = IngressResult::Action::kNotVxlan;
    ++counters_.ingress_not_vxlan;
    return res;
  }
  rest = rest.subspan(kUdpHeaderSize);
  auto vxlan = VxlanHeader::parse(rest);
  if (!vxlan) return drop(DropReason::kBadVxlan);
  rest = rest.subspan(kVxlanHeaderSize);
  res.vni = vxlan->vni;
  if (vxlan->megate_sr) {
    auto sr = SrHeader::parse(rest);
    if (!sr) return drop(DropReason::kBadSrHeader);
    res.had_sr_header = true;
    rest = rest.subspan(sr->wire_size());
  }
  // What remains is the original instance frame; sanity-check it parses
  // as Ethernet before handing it to the instance.
  if (!EthernetHeader::parse(rest)) return drop(DropReason::kBadInner);
  res.inner.assign(rest.begin(), rest.end());
  res.action = IngressResult::Action::kDecapsulated;
  ++counters_.ingress_decapsulated;
  return res;
}

void HostStack::install_route(InstanceId instance, std::uint32_t dst_site,
                              std::vector<std::uint32_t> hops) {
  const RouteKey key{instance, dst_site};
  if (hops.empty()) {
    path_map_.erase(key);
  } else {
    path_map_.update(key, std::move(hops));
  }
}

std::vector<InstancePairReport> HostStack::collect_pair_report(bool reset) {
  struct Key {
    InstanceId src;
    std::uint32_t dst_ip;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<std::uint64_t>{}(k.src * 0x9E3779B97F4A7C15ULL ^
                                        k.dst_ip);
    }
  };
  std::unordered_map<Key, InstancePairReport, KeyHash> agg;
  for (const auto& [tuple, stats] : traffic_map_) {
    auto instance = inf_map_.lookup(tuple);
    if (!instance) {
      ++counters_.unattributed_flows;  // no conntrack event seen
      continue;
    }
    InstancePairReport& r = agg[Key{*instance, tuple.dst_ip}];
    r.src_instance = *instance;
    r.dst_ip = tuple.dst_ip;
    r.bytes += stats.bytes;
    r.packets += stats.packets;
  }
  std::vector<InstancePairReport> out;
  out.reserve(agg.size());
  for (auto& [key, r] : agg) out.push_back(r);
  if (reset) {
    traffic_map_.clear();
    expire_frag_entries();
  }
  return out;
}

std::vector<InstanceReport> HostStack::collect_flow_report(bool reset) {
  // User-space agent: join inf_map and traffic_map, aggregate by instance.
  std::unordered_map<InstanceId, InstanceReport> agg;
  for (const auto& [tuple, stats] : traffic_map_) {
    auto instance = inf_map_.lookup(tuple);
    if (!instance) {
      ++counters_.unattributed_flows;  // no conntrack event seen
      continue;
    }
    InstanceReport& r = agg[*instance];
    r.instance = *instance;
    r.bytes += stats.bytes;
    r.packets += stats.packets;
  }
  std::vector<InstanceReport> out;
  out.reserve(agg.size());
  for (auto& [id, r] : agg) out.push_back(r);
  if (reset) {
    traffic_map_.clear();
    expire_frag_entries();
  }
  return out;
}

void HostStack::bind_metrics(obs::MetricsRegistry& registry,
                             const std::string& prefix) {
  const DataplaneCounters* c = &counters_;
  const auto cell = [&](const char* name, const std::uint64_t* field) {
    registry.expose_counter(prefix + "." + name,
                            [field]() { return *field; });
  };
  cell("egress_passed", &c->egress_passed);
  cell("egress_encapsulated", &c->egress_encapsulated);
  cell("egress_malformed", &c->egress_malformed);
  cell("egress_bad_ethernet", &c->egress_bad_ethernet);
  cell("egress_bad_ipv4", &c->egress_bad_ipv4);
  cell("egress_no_route", &c->egress_no_route);
  cell("egress_route_drops", &c->egress_route_drops);
  cell("ingress_decapsulated", &c->ingress_decapsulated);
  cell("ingress_not_vxlan", &c->ingress_not_vxlan);
  cell("ingress_malformed", &c->ingress_malformed);
  cell("ingress_bad_ethernet", &c->ingress_bad_ethernet);
  cell("ingress_bad_ipv4", &c->ingress_bad_ipv4);
  cell("ingress_bad_udp", &c->ingress_bad_udp);
  cell("ingress_bad_vxlan", &c->ingress_bad_vxlan);
  cell("ingress_bad_sr", &c->ingress_bad_sr);
  cell("ingress_bad_inner", &c->ingress_bad_inner);
  cell("unattributed_packets", &c->unattributed_packets);
  cell("unattributed_flows", &c->unattributed_flows);
  cell("frag_entries_expired", &c->frag_entries_expired);
  cell("sr_serialize_errors", &c->sr_serialize_errors);
  cell("map_full_drops", &c->map_full_drops);

  const auto occupancy = [&](const char* name, auto* map) {
    registry.expose_gauge(prefix + ".map." + name + std::string(".entries"),
                          [map]() { return static_cast<double>(map->size()); });
  };
  occupancy("env", &env_map_);
  occupancy("contk", &contk_map_);
  occupancy("inf", &inf_map_);
  occupancy("traffic", &traffic_map_);
  occupancy("frag", &frag_map_);
  occupancy("path", &path_map_);
}

}  // namespace megate::dataplane

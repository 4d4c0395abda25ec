#pragma once
// The MegaTE end-host networking stack (§5.1-§5.2), simulated in-process.
//
// Three "eBPF programs" (methods, one per kernel hook) cooperate through
// the maps of Fig. 6:
//   - on_sys_enter_execve:   pid + instance id        -> env_map
//   - on_conntrack_event:    five-tuple + pid         -> contk_map, and
//                            env_map JOIN contk_map   -> inf_map
//   - tc_egress:             per-packet accounting    -> traffic_map
//                            (fragments via frag_map), then VXLAN
//                            encapsulation with the SR header from
//                            path_map when a TE path is installed.
//
// The endpoint agent reads inf_map JOIN traffic_map (collect_flow_report)
// and installs TE decisions into path_map (install_route).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "megate/dataplane/ebpf.h"
#include "megate/dataplane/packet.h"
#include "megate/dataplane/sr_header.h"
#include "megate/dataplane/vxlan.h"
#include "megate/obs/metrics.h"

namespace megate::dataplane {

using Pid = std::uint32_t;
using InstanceId = std::uint64_t;

/// Overlay addressing convention used across the library: the destination
/// router site lives in the top 12 bits of the overlay IPv4 address, the
/// endpoint index in the low 20 (4096 sites x ~1M endpoints per site).
/// The TC program uses this to select the per-destination-site SR route.
inline constexpr std::uint32_t kOverlaySiteShift = 20;
/// Mask of the endpoint-index bits — derived from the shift so the two can
/// never drift apart. Every consumer of the overlay convention (this file,
/// the telemetry collector, tests) must use these helpers rather than a
/// hand-written mask.
inline constexpr std::uint32_t kOverlayIndexMask =
    (std::uint32_t{1} << kOverlaySiteShift) - 1;
constexpr std::uint32_t make_overlay_ip(std::uint32_t site,
                                        std::uint32_t index) {
  return (site << kOverlaySiteShift) | (index & kOverlayIndexMask);
}
constexpr std::uint32_t overlay_ip_site(std::uint32_t ip) {
  return ip >> kOverlaySiteShift;
}
constexpr std::uint32_t overlay_ip_index(std::uint32_t ip) {
  return ip & kOverlayIndexMask;
}

/// Wildcard destination site: the route applies to every destination.
inline constexpr std::uint32_t kAnyDstSite = 0xFFFFFFFF;

/// Flow statistics accumulated at the TC hook.
struct FlowStats {
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
};

/// Per-instance report the endpoint agent uploads each TE period.
struct InstanceReport {
  InstanceId instance = 0;
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
};

/// Per-(source instance, destination) flow report — the TE optimizer
/// needs demands per endpoint *pair*, so the agent also uploads volume
/// keyed by the destination overlay address (site + endpoint index are
/// recovered via the overlay IP convention).
struct InstancePairReport {
  InstanceId src_instance = 0;
  std::uint32_t dst_ip = 0;  ///< overlay address of the peer
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
};

/// Why a frame was dropped (or why processing stopped early). One counter
/// per reason lives in DataplaneCounters so malformed traffic is visible
/// instead of silently vanishing.
enum class DropReason : std::uint8_t {
  kNone = 0,
  kBadEthernet,    ///< truncated / non-IPv4 Ethernet header
  kBadIpv4,        ///< truncated or invalid IPv4 header
  kBadUdp,         ///< truncated UDP header
  kBadVxlan,       ///< truncated or invalid VXLAN header
  kBadSrHeader,    ///< SR flag set but header absent/corrupt
  kBadInner,       ///< decapsulated payload is not an Ethernet frame
  kSrTooLong,      ///< installed (planned) route not encodable as SR header
};

/// Result of pushing one packet through the TC egress program.
struct TcVerdict {
  enum class Action { kPass, kEncapsulated, kDropMalformed };
  Action action = Action::kPass;
  DropReason drop_reason = DropReason::kNone;
  Buffer packet;  ///< the (possibly encapsulated) outgoing frame
};

/// Dataplane health counters — every silent-drop path in the host stack
/// increments exactly one of these. Single-writer (the owning HostStack),
/// exported through MetricsRegistry::expose_counter by bind_metrics().
struct DataplaneCounters {
  // tc_egress outcomes.
  std::uint64_t egress_passed = 0;
  std::uint64_t egress_encapsulated = 0;
  std::uint64_t egress_malformed = 0;
  std::uint64_t egress_bad_ethernet = 0;
  std::uint64_t egress_bad_ipv4 = 0;
  /// kPass because no TE route was installed (conventional-TE fallback).
  /// Disjoint from sr_serialize_errors, which is a *planned* route the SR
  /// header cannot carry — that one drops (egress_route_drops), it does
  /// not pass, so black-holed-by-encap traffic is visible.
  std::uint64_t egress_no_route = 0;
  std::uint64_t egress_route_drops = 0;  ///< planned route refused at encap
  // vtep_ingress outcomes.
  std::uint64_t ingress_decapsulated = 0;
  std::uint64_t ingress_not_vxlan = 0;
  std::uint64_t ingress_malformed = 0;
  std::uint64_t ingress_bad_ethernet = 0;
  std::uint64_t ingress_bad_ipv4 = 0;
  std::uint64_t ingress_bad_udp = 0;
  std::uint64_t ingress_bad_vxlan = 0;
  std::uint64_t ingress_bad_sr = 0;
  std::uint64_t ingress_bad_inner = 0;
  // Attribution / map health.
  std::uint64_t unattributed_packets = 0;  ///< classify() failed at egress
  std::uint64_t unattributed_flows = 0;    ///< skipped at report collection
  std::uint64_t frag_entries_expired = 0;  ///< stale frag_map reclamation
  std::uint64_t sr_serialize_errors = 0;   ///< invalid route at encap time
  std::uint64_t map_full_drops = 0;        ///< eBPF map update hit capacity
};

/// Every eBPF map holds up to 65,536 entries and the underlay UDP source
/// port is 49152 (host_stack.cpp).
struct HostStackOptions {
  std::uint32_t host_ip = 0x0A000001;   ///< outer (underlay) source IP
  std::uint32_t vni = 1;
};

class HostStack {
 public:
  explicit HostStack(HostStackOptions options = {});

  // --- kernel hooks ----------------------------------------------------
  /// tracepoint syscalls/sys_enter_execve: a process starts inside an
  /// instance.
  void on_sys_enter_execve(Pid pid, InstanceId instance);

  /// kprobe ctnetlink_conntrack_event: a connection is created by `pid`.
  /// Joins env_map to fill inf_map so the TC program can map packets to
  /// instances.
  void on_conntrack_event(const FiveTuple& tuple, Pid pid);

  /// TC egress hook: accounts the (inner) IPv4 packet and, when the
  /// sending instance has an installed TE path, encapsulates it in
  /// UDP/VXLAN with the MegaTE SR header appended (Fig. 7).
  /// `frame` is the instance's Ethernet frame.
  TcVerdict tc_egress(ConstBytes frame, std::uint32_t underlay_dst_ip);

  /// Result of the receive-side VTEP processing.
  struct IngressResult {
    enum class Action {
      kDecapsulated,  ///< VXLAN stripped; `inner` is the instance frame
      kNotVxlan,      ///< not addressed to the VXLAN port: left alone
      kDropMalformed,
    };
    Action action = Action::kDropMalformed;
    DropReason drop_reason = DropReason::kNone;
    Buffer inner;
    std::uint32_t vni = 0;
    bool had_sr_header = false;
  };

  /// VTEP ingress: strips the outer Ethernet/IPv4/UDP/VXLAN (and the
  /// MegaTE SR header when the VXLAN reserved-field flag is set) from an
  /// underlay frame arriving at this host and returns the inner instance
  /// frame — the receive half of §5.2's encapsulation.
  IngressResult vtep_ingress(ConstBytes underlay_frame);

  // --- endpoint agent interface -----------------------------------------
  /// Installs the TE decision for one (instance, destination site): the
  /// hop sequence the SR header will carry for that instance's flows
  /// towards `dst_site`. An empty vector uninstalls the route.
  void install_route(InstanceId instance, std::uint32_t dst_site,
                     std::vector<std::uint32_t> hops);

  /// inf_map JOIN traffic_map, aggregated per instance; clears traffic
  /// counters when `reset` (the per-TE-period collection).
  std::vector<InstanceReport> collect_flow_report(bool reset = true);

  /// inf_map JOIN traffic_map keyed by (source instance, destination
  /// overlay IP) — the input the TE optimizer actually needs. Clears
  /// traffic counters when `reset`.
  std::vector<InstancePairReport> collect_pair_report(bool reset = true);

  // --- observability ----------------------------------------------------
  /// Cumulative dataplane counters (single-writer; read any time).
  const DataplaneCounters& counters() const noexcept { return counters_; }

  /// Registers every DataplaneCounters cell plus per-map occupancy gauges
  /// with `registry` under `<prefix>.`. The registry reads the live
  /// storage at snapshot time — no second copy of any counter exists.
  /// `registry` must outlive this HostStack's use of it.
  void bind_metrics(obs::MetricsRegistry& registry,
                    const std::string& prefix = "dataplane");

  // --- introspection for tests ------------------------------------------
  std::optional<InstanceId> instance_of(const FiveTuple& t) const {
    return inf_map_.lookup(t);
  }
  std::optional<FlowStats> stats_of(const FiveTuple& t) const {
    return traffic_map_.lookup(t);
  }
  std::size_t frag_map_size() const noexcept { return frag_map_.size(); }
  std::optional<std::vector<std::uint32_t>> route_of(
      InstanceId instance, std::uint32_t dst_site) const {
    return path_map_.lookup(RouteKey{instance, dst_site});
  }

 private:
  /// Extracts the five-tuple of an inner IPv4 packet, consulting frag_map
  /// for non-first fragments (which carry no L4 header).
  std::optional<FiveTuple> classify(const Ipv4Header& ip, ConstBytes l4);

  /// Reclaims frag_map entries not touched since the previous collection
  /// and advances the generation. Called from collect_* when `reset`.
  void expire_frag_entries();

  /// path_map key: (instance, destination site).
  struct RouteKey {
    InstanceId instance;
    std::uint32_t dst_site;
    bool operator==(const RouteKey&) const = default;
  };
  struct RouteKeyHash {
    std::size_t operator()(const RouteKey& k) const noexcept {
      return std::hash<std::uint64_t>{}(k.instance * 0x9E3779B97F4A7C15ULL ^
                                        k.dst_site);
    }
  };

  /// frag_map value: the flow's five-tuple plus the generation (TE
  /// collection period) in which the entry was last touched. Entries idle
  /// for a full period are reclaimed by expire_frag_entries() — the last
  /// fragment must NOT erase eagerly, because fragments can arrive out of
  /// order and middle fragments still in flight would become
  /// unattributable; and a *lost* last fragment would leak the entry
  /// forever without periodic expiry.
  struct FragEntry {
    FiveTuple tuple;
    std::uint64_t gen = 0;
  };

  HostStackOptions options_;
  EbpfMap<Pid, InstanceId> env_map_;
  EbpfMap<FiveTuple, Pid, FiveTupleHash> contk_map_;
  EbpfMap<FiveTuple, InstanceId, FiveTupleHash> inf_map_;
  EbpfMap<FiveTuple, FlowStats, FiveTupleHash> traffic_map_;
  EbpfMap<std::uint16_t, FragEntry> frag_map_;  ///< ipid -> flow + gen
  EbpfMap<RouteKey, std::vector<std::uint32_t>, RouteKeyHash> path_map_;
  std::uint64_t frag_gen_ = 0;
  DataplaneCounters counters_;
};

}  // namespace megate::dataplane

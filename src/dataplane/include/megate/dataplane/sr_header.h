#pragma once
// The MegaTE segment-routing header (paper Fig. 7b), inserted right after
// the VXLAN header by the host's TC-layer eBPF program:
//
//   +----------+--------+----------+-----------------------+
//   | HopNum u8| Off u8 | Rsvd u16 | Hop[0..HopNum-1] u32  |
//   +----------+--------+----------+-----------------------+
//
// "Hop Number" is the total hop count, "Offset" the index of the *next*
// hop to visit, and Hop[] the router-site sequence across the WAN.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "megate/dataplane/packet.h"

namespace megate::dataplane {

inline constexpr std::size_t kSrFixedSize = 4;
inline constexpr std::size_t kSrMaxHops = 32;

struct SrHeader {
  std::uint8_t offset = 0;
  std::vector<std::uint32_t> hops;

  std::size_t wire_size() const noexcept {
    return kSrFixedSize + hops.size() * 4;
  }
  bool at_last_hop() const noexcept {
    return std::size_t{offset} + 1 >= hops.size();
  }
  std::uint32_t next_hop() const { return hops[offset]; }

  /// Serializes the header, appending to `out`. Returns false — leaving
  /// `out` untouched — when the header cannot be represented on the wire:
  /// no hops, more than kSrMaxHops (the hop count is a single byte and
  /// parse() rejects anything above the cap), or offset > hop count.
  [[nodiscard]] bool serialize(Buffer& out) const;
  /// Parses; fails on truncation, offset > hop count, or > kSrMaxHops.
  static std::optional<SrHeader> parse(ConstBytes in);
  /// True iff serialize() would succeed.
  bool valid() const noexcept {
    return !hops.empty() && hops.size() <= kSrMaxHops &&
           offset <= hops.size();
  }
};

}  // namespace megate::dataplane

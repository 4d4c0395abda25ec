#include "megate/tm/delta.h"

#include <cstring>

namespace megate::tm {
namespace {

/// splitmix64 finalizer: full-avalanche mix of one 64-bit word. Hashing
/// word-at-a-time (one mix + combine per flow) instead of byte-wise FNV
/// keeps fingerprinting a whole matrix a fraction of a FastSSP solve even
/// with tens of thousands of flows.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

PairFingerprint fingerprint_flows(const std::vector<EndpointDemand>& flows) {
  PairFingerprint fp;
  fp.num_flows = flows.size();
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const EndpointDemand& f : flows) {
    std::uint64_t bits;
    std::memcpy(&bits, &f.demand_gbps, sizeof(bits));
    h = (h ^ mix64(bits ^ static_cast<std::uint64_t>(f.qos))) *
        0x100000001B3ULL;
    fp.total_gbps += f.demand_gbps;
  }
  fp.hash = h;
  return fp;
}

}  // namespace megate::tm

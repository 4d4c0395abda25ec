#include "megate/tm/delta.h"

#include <cstring>

namespace megate::tm {
namespace {

/// splitmix64 finalizer: full-avalanche mix of one 64-bit word. Hashing
/// word-at-a-time (one mix + combine per flow) instead of byte-wise FNV
/// keeps the delta pass a fraction of a FastSSP solve even on matrices
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

PairFingerprintMap fingerprint_pairs(const TrafficMatrix& traffic) {
  PairFingerprintMap out;
  out.reserve(traffic.pairs().size());
  for (const auto& [pair, flows] : traffic.pairs()) {
    out.emplace(pair, fingerprint_flows(flows));
  }
  return out;
}

DemandDelta diff_traffic(const PairFingerprintMap& prev,
                         const TrafficMatrix& next) {
  DemandDelta delta;
  for (const auto& [pair, flows] : next.pairs()) {
    const PairFingerprint fp = fingerprint_flows(flows);
    delta.total_demand_gbps += fp.total_gbps;
    auto it = prev.find(pair);
    if (it == prev.end()) {
      ++delta.added_pairs;
    } else if (!(it->second == fp)) {
      ++delta.changed_pairs;
    } else {
      ++delta.clean_pairs;
      continue;
    }
    delta.dirty.push_back(pair);
    delta.dirty_demand_gbps += fp.total_gbps;
  }
  for (const auto& [pair, fp] : prev) {
    if (next.pairs().find(pair) == next.pairs().end()) {
      ++delta.removed_pairs;
      delta.dirty.push_back(pair);
    }
  }
  return delta;
}

DemandDelta diff_traffic(const TrafficMatrix& prev,
                         const TrafficMatrix& next) {
  return diff_traffic(fingerprint_pairs(prev), next);
}

}  // namespace megate::tm

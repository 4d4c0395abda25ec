#pragma once
// Demand deltas between consecutive TE intervals.
//
// Successive endpoint traffic matrices differ only marginally between the
// five-minute TE intervals (§6.2), so the incremental solving layer first
// runs a *delta pass*: every site pair gets a bitwise fingerprint of its
// flow list (demands + QoS classes, order-sensitive), and pairs whose
// fingerprint matches the previous interval are classified *clean* —
// their per-pair FastSSP work is a candidate for memoized reuse. Dirty
// pairs (changed, newly appeared, or vanished) must be re-solved.
//
// Fingerprints are order-sensitive on purpose: the stage-2 solve consumes
// flows in vector order, so two multiset-equal but permuted flow lists can
// legitimately produce different (equally valid) assignments. Exact-order
// equality is the invariance that makes cached results byte-for-byte
// interchangeable with a recompute.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "megate/tm/traffic.h"
#include "megate/topo/tunnels.h"

namespace megate::tm {

/// Fingerprint of one site pair's flow list.
struct PairFingerprint {
  std::uint64_t hash = 0;       ///< FNV-1a over (demand bits, qos) per flow
  std::uint64_t num_flows = 0;
  double total_gbps = 0.0;

  bool operator==(const PairFingerprint&) const = default;
};

using PairFingerprintMap =
    std::unordered_map<topo::SitePair, PairFingerprint, topo::SitePairHash>;

/// Order-sensitive fingerprint of a flow list (bitwise demand + qos).
PairFingerprint fingerprint_flows(const std::vector<EndpointDemand>& flows);

/// Fingerprints every pair of `traffic`.
PairFingerprintMap fingerprint_pairs(const TrafficMatrix& traffic);

/// Classification of one interval's pairs against the previous interval.
struct DemandDelta {
  /// Pairs present in `next` whose flow list changed or is new, plus pairs
  /// that vanished since `prev`.
  std::vector<topo::SitePair> dirty;
  std::size_t clean_pairs = 0;
  std::size_t changed_pairs = 0;
  std::size_t added_pairs = 0;
  std::size_t removed_pairs = 0;
  /// Demand (of `next`) behind the dirty pairs, and the matrix total.
  double dirty_demand_gbps = 0.0;
  double total_demand_gbps = 0.0;

  std::size_t dirty_pairs() const noexcept { return dirty.size(); }
  /// Share of demand that must be re-solved (0 on an empty matrix).
  double dirty_fraction() const noexcept {
    return total_demand_gbps > 0.0 ? dirty_demand_gbps / total_demand_gbps
                                   : 0.0;
  }
};

/// Diffs `next` against the previous interval's fingerprints.
DemandDelta diff_traffic(const PairFingerprintMap& prev,
                         const TrafficMatrix& next);

/// Convenience overload fingerprinting `prev` on the fly.
DemandDelta diff_traffic(const TrafficMatrix& prev,
                         const TrafficMatrix& next);

}  // namespace megate::tm

#pragma once
// Order-sensitive fingerprints of a site pair's flow list.
//
// Successive endpoint traffic matrices differ only marginally between the
// five-minute TE intervals (§6.2). A pair's fingerprint (its flows'
// demand bits and QoS classes, in order) is what lets later work
// recognise an unchanged pair in O(1). It keys the MegaTE stage-2 memo,
// tells the learned allocator which pairs moved since its last observe,
// and feeds DemandStream's matrix fingerprint.
//
// Fingerprints are order-sensitive on purpose: the stage-2 solve consumes
// flows in vector order, so two multiset-equal but permuted flow lists can
// legitimately produce different (equally valid) assignments. Exact-order
// equality is the invariance that makes cached results byte-for-byte
// interchangeable with a recompute.

#include <cstdint>
#include <vector>

#include "megate/tm/traffic.h"

namespace megate::tm {

/// Fingerprint of one site pair's flow list.
struct PairFingerprint {
  std::uint64_t hash = 0;       ///< FNV-1a over (demand bits, qos) per flow
  std::uint64_t num_flows = 0;
  double total_gbps = 0.0;

  bool operator==(const PairFingerprint&) const = default;
};

/// Order-sensitive fingerprint of a flow list (bitwise demand + qos).
PairFingerprint fingerprint_flows(const std::vector<EndpointDemand>& flows);

}  // namespace megate::tm

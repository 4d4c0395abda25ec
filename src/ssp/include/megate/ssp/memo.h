#pragma once
// Per-site-pair memoization of stage-2 (MaxEndpointFlow / FastSSP)
// results across TE intervals.
//
// The per-pair stage-2 solve is a pure deterministic function of
//   (flow demand list of the pair's QoS-round view, tunnel list,
//    stage-1 allocation F_{k,t}, FastSSP options),
// so its result can be reused verbatim whenever every input is *bitwise*
// identical to a previous interval. Keys are 64-bit fingerprints of those
// inputs: demand_hash is the pair's whole flow-list fingerprint
// (tm::fingerprint_flows — slightly stricter than the QoS-round view, and
// computed once per solve rather than once per round), alloc_hash the
// bitwise F_{k,t} vector. A hit replays the stored per-flow tunnel
// assignment without running FastSSP.
//
// Storage is flat: one slot per dense (pair, QoS round) id, which the
// caller assigns and keeps stable across intervals. A slot is live iff its
// epoch stamp equals the cache's epoch, so invalidate_all() is one
// increment instead of freeing every entry. An insert is split in two so
// the solve that produces an entry can write it in place, in parallel
// across slots: refill() hands out the slot's buffer (reusing its
// capacity) and commit() makes it live.
//
// Every topology or capacity change (link up/down, capacity derate,
// tunnel repair) must call invalidate_all() — fault events from the chaos
// injector reach the cache this way. Entries also self-invalidate on key
// mismatch (demands or F_{k,t} moved), so a stale hit requires a 128-bit
// fingerprint collision on top of a missed invalidation.
//
// No eviction policy is needed: the table is bounded by the number of
// distinct (pair, round) ids the caller ever hands out.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace megate::ssp {

/// Fingerprint of one stage-2 solve's inputs (beyond the slot id).
struct PairSolveKey {
  std::uint64_t demand_hash = 0;  ///< pair's flow list (demands+qos), bitwise
  std::uint64_t alloc_hash = 0;   ///< F_{k,t} vector, bitwise

  bool operator==(const PairSolveKey&) const = default;
};

class PairMemoCache {
 public:
  /// Grows the table to at least `n` slots; new slots start empty.
  void resize(std::size_t n);

  /// The cached assignment of `slot` (tunnel index or -1 per view flow,
  /// in view order) when the slot is live and its key matches, else
  /// nullptr.
  const std::vector<std::int32_t>* lookup(std::size_t slot,
                                          const PairSolveKey& key) const;

  /// Drops `slot`'s entry and returns its assignment buffer, cleared, for
  /// the caller to fill. Touches only that slot, so calls on distinct
  /// slots may run concurrently (with each other and with lookups of
  /// other slots).
  std::vector<std::int32_t>& refill(std::size_t slot);

  /// Makes `slot` live under `key`, holding what its buffer holds now.
  void commit(std::size_t slot, const PairSolveKey& key);

  /// Drops every entry in O(1).
  void invalidate_all() noexcept;

  /// True when nothing was committed since the last invalidate_all(), so
  /// every lookup would miss.
  bool empty() const noexcept { return !committed_; }

 private:
  struct Slot {
    std::uint64_t epoch = 0;  ///< live iff == epoch_
    PairSolveKey key;
    std::vector<std::int32_t> assignment;
  };
  std::vector<Slot> slots_;
  std::uint64_t epoch_ = 1;
  bool committed_ = false;
};

}  // namespace megate::ssp

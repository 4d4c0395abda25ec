#pragma once
// The TE database of §3.2: a sharded, versioned, in-memory key-value store
// (the production system customizes Redis; we implement the mechanism
// directly). The controller publishes TE configurations under an
// incrementing version; endpoints poll the version with a cheap query and
// pull their own key only when it changed — the bottom-up control loop.
//
// Read path: lock-free. Each shard holds an atomic pointer to an
// *immutable snapshot* (a power-of-two array of buckets); readers pin an
// epoch (util::EpochDomain), load the pointer and walk the snapshot
// without ever taking a lock, so GET throughput scales with reader
// threads — the honest substrate under the "160,000 concurrent queries
// per second using two shards" claim (bench/micro_kvstore compares it
// against the mutex-per-shard design it replaced).
//
// Write path: one versioned publish. publish_delta is the only way to
// change the table (reset_to only replaces it for replica catch-up). It
// clones just the buckets the changed keys land in and shares every other
// bucket with the previous snapshot, so a publish copies O(churn) entries
// (plus the shard's bucket-pointer array). A batch that would push the
// load factor past its bound is applied into a table first rehashed to
// fit it, so a large first publish costs O(keys), not O(keys²). Old
// snapshots are retired through the epoch domain and freed once no reader
// can still hold them.
//
// Consistency: every publish tags the snapshots it installs with the new
// version *before* bumping the global version counter. A single read
// returns the version it is consistent with; multi_get returns one
// consistent (version, values) cut across shards — it retries while any
// shard's tag exceeds the version observed at the start (i.e. while a
// publish is mid-flight), seqlock style.
//
// Shard availability: for the fault-injection experiments a shard can be
// marked down (set_shard_up). A down shard refuses reads (kUnavailable)
// and buffers its share of each publish, tagged with that publish's
// version, into a redo log replayed in version order on recovery (the
// catch-up behaviour of a replicated store). The version counter itself
// stays available (in production it is served by a tiny front cache, not
// the shards), so readers can always tell that an update exists even
// while its payload shard is down.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "megate/obs/metrics.h"
#include "megate/util/epoch.h"

namespace megate::ctrl {

using Version = std::uint64_t;

/// Outcome of a shard-aware read.
enum class GetStatus : std::uint8_t {
  kOk,           ///< key found, value filled in
  kMiss,         ///< shard up, key absent
  kUnavailable,  ///< shard down: the caller must retry later
};

/// A read and the version it is consistent with, observed atomically —
/// the unit the batched pull protocol is built from.
struct GetResult {
  GetStatus status = GetStatus::kMiss;
  std::string value;    ///< empty unless kOk
  /// Store version this read reflects: every publish <= version is
  /// visible in `value`, none after it (kUnavailable: version only).
  Version version = 0;

  bool ok() const noexcept { return status == GetStatus::kOk; }
};

/// One consistent (version, values) cut across shards.
struct MultiGetResult {
  /// All entries reflect exactly the state at this version.
  Version version = 0;
  /// False only when the seqlock retry budget was exhausted by a storm
  /// of concurrent publishes; entries are then a best-effort read.
  bool consistent = true;
  std::vector<GetResult> entries;  ///< parallel to the requested keys

  /// True when no entry hit a down shard.
  bool all_available() const noexcept {
    for (const GetResult& e : entries) {
      if (e.status == GetStatus::kUnavailable) return false;
    }
    return true;
  }
};

/// Changed keys of one publish: what the controller writes per interval.
/// Both lists have default initializers, so a designated initializer
/// names only the one it fills: publish_delta({.erases = {key}}).
struct KvDelta {
  std::vector<std::pair<std::string, std::string>> upserts{};
  std::vector<std::string> erases{};

  bool empty() const noexcept { return upserts.empty() && erases.empty(); }
  /// Logical write volume (key + value payload bytes) — what lands in
  /// the kv.delta_bytes counter.
  std::size_t bytes() const noexcept;
};

class KvStore {
 public:
  explicit KvStore(std::size_t shards = 2);
  ~KvStore();

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  /// Atomically applies the changed keys and bumps the config version —
  /// what the controller does each TE interval or on failure (§3.2), and
  /// the only write. Clones just the touched buckets and structurally
  /// shares the rest with the previous snapshot. Keys landing on a down
  /// shard are buffered in that shard's redo log, tagged with this
  /// publish's version; the version still advances (eventual consistency:
  /// readers learn an update exists and retry the payload).
  Version publish_delta(const KvDelta& delta);

  /// Replication catch-up (graceful restart): atomically replaces the
  /// entire store contents with `snapshot` (upserts only; erases are
  /// meaningless against a cleared table) and jumps the version counter
  /// to exactly `version`, which must be >= the current version. A
  /// replica that missed publishes v+1..V — it was restarted empty, or
  /// partitioned away — installs one cumulative snapshot at V instead of
  /// replaying each missed delta. Down shards come back up: a reset IS
  /// the recovery, so buffered redo entries (all older than the
  /// snapshot) are discarded.
  Version reset_to(const KvDelta& snapshot, Version version);

  /// Cheap version query (the endpoint heart of the pull loop).
  Version version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  /// Lock-free shard-aware read; distinguishes a missing key from a down
  /// shard and reports the version the read is consistent with.
  GetResult try_get(const std::string& key) const;

  /// One consistent cut across shards: every returned value reflects
  /// exactly the state at the returned version (seqlock retry while a
  /// publish is mid-flight). The batched pull primitive.
  MultiGetResult multi_get(const std::vector<std::string>& keys) const;

  /// Marks one shard down/up. Recovery replays the shard's buffered
  /// publishes in version order before new reads are served.
  void set_shard_up(std::size_t shard, bool up);
  bool shard_up(std::size_t shard) const;
  /// Shard a key lives on (stable hash; for tests and fault planning).
  std::size_t shard_index(const std::string& key) const noexcept;

  std::size_t num_shards() const noexcept { return shards_.size(); }
  std::size_t size() const;
  /// Total key + value payload bytes currently stored.
  std::size_t payload_bytes() const;

  /// Total GET queries served since construction (QPS bench).
  std::uint64_t query_count() const noexcept {
    return queries_.load(std::memory_order_relaxed);
  }
  /// Reads refused because the key's shard was down.
  std::uint64_t unavailable_count() const noexcept {
    return unavailable_.load(std::memory_order_relaxed);
  }
  /// GET queries served by one shard (query_count() == sum over shards).
  std::uint64_t shard_query_count(std::size_t shard) const;

  /// Snapshots installed across all shards (publishes, recoveries, resets).
  std::uint64_t snapshot_installs() const noexcept {
    return snapshot_installs_.load(std::memory_order_relaxed);
  }
  /// Installs that rehashed every bucket (growth), not just the delta.
  std::uint64_t snapshot_rebuilds() const noexcept {
    return snapshot_rebuilds_.load(std::memory_order_relaxed);
  }
  /// Logical write volume (key+value bytes) of all publishes so far.
  std::uint64_t delta_bytes() const noexcept {
    return delta_bytes_.load(std::memory_order_relaxed);
  }
  /// Keys written (upserted or erased) by all publishes so far.
  std::uint64_t delta_keys() const noexcept {
    return delta_keys_.load(std::memory_order_relaxed);
  }
  std::uint64_t multi_get_count() const noexcept {
    return multi_gets_.load(std::memory_order_relaxed);
  }
  /// Seqlock retries taken by multi_get (contended publishes only).
  std::uint64_t multi_get_retries() const noexcept {
    return multi_get_retries_.load(std::memory_order_relaxed);
  }
  /// Writes buffered into down-shard redo logs / replayed on recovery.
  std::uint64_t redo_buffered() const noexcept {
    return redo_buffered_.load(std::memory_order_relaxed);
  }
  std::uint64_t redo_replayed() const noexcept {
    return redo_replayed_.load(std::memory_order_relaxed);
  }

  /// Exposes query/unavailable/per-shard-query counters, the snapshot
  /// and delta instrumentation (kv.snapshot.*, kv.delta_bytes, ...) plus
  /// version and occupancy gauges in `registry` under `<prefix>.`
  /// (default "kv"). Snapshot-time reads of the live atomics — no second
  /// counter copy. This KvStore must outlive the registry's use of it.
  void bind_metrics(obs::MetricsRegistry& registry,
                    const std::string& prefix = "kv") const;

 private:
  struct Bucket {
    std::vector<std::pair<std::string, std::string>> entries;
  };
  /// Immutable table state of one shard. Never mutated after install;
  /// consecutive snapshots share every bucket the delta left untouched.
  struct Snapshot {
    Version version = 0;  ///< last publish applied to this shard
    std::size_t mask = 0;  ///< buckets.size() - 1 (power of two)
    std::size_t keys = 0;
    std::size_t bytes = 0;  ///< key + value payload bytes
    std::vector<std::shared_ptr<const Bucket>> buckets;
  };
  /// One buffered key of a down shard's publish, replayed in order.
  struct RedoEntry {
    std::string key;
    std::string value;
    bool is_erase = false;
    Version publish_version = 0;  ///< the publish that wrote it
  };
  struct Shard {
    /// Writer-side state; guards owner/up/redo and serializes installs.
    mutable std::mutex mu;
    std::shared_ptr<const Snapshot> owner;  ///< keeps `live` alive
    bool up = true;
    std::vector<RedoEntry> redo;
    /// Reader-side: epoch-protected snapshot pointer + availability.
    std::atomic<const Snapshot*> live{nullptr};
    std::atomic<bool> up_flag{true};
    /// GET queries served by (routed to) this shard.
    mutable std::atomic<std::uint64_t> queries{0};
  };
  struct Op;  // internal upsert/erase unit applied to a snapshot

  void install_locked(Shard& shard, std::shared_ptr<const Snapshot> next);
  std::shared_ptr<const Snapshot> apply_ops(const Snapshot& base,
                                            const std::vector<Op>& ops,
                                            Version version);
  /// The one allocation every empty bucket shares until written to.
  static const std::shared_ptr<const Bucket>& empty_bucket();

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<Version> version_{0};
  /// Serializes publishes so versions are assigned and installed in
  /// order.
  std::mutex publish_mu_;
  mutable std::atomic<std::uint64_t> queries_{0};
  mutable std::atomic<std::uint64_t> unavailable_{0};
  std::atomic<std::uint64_t> snapshot_installs_{0};
  std::atomic<std::uint64_t> snapshot_rebuilds_{0};
  std::atomic<std::uint64_t> delta_bytes_{0};
  std::atomic<std::uint64_t> delta_keys_{0};
  mutable std::atomic<std::uint64_t> multi_gets_{0};
  mutable std::atomic<std::uint64_t> multi_get_retries_{0};
  mutable std::atomic<std::uint64_t> multi_get_inconsistent_{0};
  std::atomic<std::uint64_t> redo_buffered_{0};
  std::atomic<std::uint64_t> redo_replayed_{0};
};

}  // namespace megate::ctrl

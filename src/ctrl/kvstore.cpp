#include "megate/ctrl/kvstore.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <unordered_map>

namespace megate::ctrl {
namespace {

// Bucket sizing: rebuild (rehash everything) only when a batch could push
// the load factor past kGrowLoad; deltas otherwise clone just the touched
// buckets.
constexpr std::size_t kMinBuckets = 8;
constexpr std::size_t kGrowLoad = 2;    ///< keys/bucket triggering growth
constexpr std::size_t kTargetLoad = 1;  ///< keys/bucket after growth

/// seqlock retry budget of multi_get; each retry means a publish landed
/// mid-read, so more than a few in a row takes a publish storm.
constexpr int kMultiGetAttempts = 16;

/// Decorrelates the bucket index from the shard index (which consumes
/// the low bits of the same hash as `hash % shards`).
std::uint64_t mix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::size_t key_hash(const std::string& key) {
  return std::hash<std::string>{}(key);
}

}  // namespace

/// One write applied to a snapshot: upsert (value set) or erase (null).
/// Borrows the caller's strings — ops never outlive the delta they index.
struct KvStore::Op {
  const std::string* key = nullptr;
  const std::string* value = nullptr;
  std::size_t hash = 0;
};

std::size_t KvDelta::bytes() const noexcept {
  std::size_t b = 0;
  for (const auto& [k, v] : upserts) b += k.size() + v.size();
  for (const std::string& k : erases) b += k.size();
  return b;
}

KvStore::KvStore(std::size_t shards) {
  if (shards == 0) throw std::invalid_argument("need at least one shard");
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    auto snap = std::make_shared<Snapshot>();
    snap->mask = kMinBuckets - 1;
    snap->buckets.assign(kMinBuckets, empty_bucket());
    shard->live.store(snap.get(), std::memory_order_seq_cst);
    shard->owner = std::move(snap);
    shards_.push_back(std::move(shard));
  }
}

KvStore::~KvStore() = default;

std::size_t KvStore::shard_index(const std::string& key) const noexcept {
  return key_hash(key) % shards_.size();
}

const std::shared_ptr<const KvStore::Bucket>& KvStore::empty_bucket() {
  static const std::shared_ptr<const Bucket> kEmpty =
      std::make_shared<Bucket>();
  return kEmpty;
}

void KvStore::install_locked(Shard& shard,
                             std::shared_ptr<const Snapshot> next) {
  // Publish the new snapshot first, then retire the old one: the epoch
  // bump inside retire() happens after the pointer swap, so any reader
  // pinned at the bumped epoch already sees `next` (see util/epoch.h).
  shard.live.store(next.get(), std::memory_order_seq_cst);
  std::shared_ptr<const Snapshot> old = std::move(shard.owner);
  shard.owner = std::move(next);
  util::EpochDomain::global().retire(std::move(old));
  snapshot_installs_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const KvStore::Snapshot> KvStore::apply_ops(
    const Snapshot& base, const std::vector<Op>& ops, Version version) {
  // Applies one op to a writable bucket of `snap`, keeping its key and
  // byte totals current.
  const auto apply = [](const Op& op, Bucket& b, Snapshot& snap) {
    auto ent = std::find_if(
        b.entries.begin(), b.entries.end(),
        [&](const auto& e) { return e.first == *op.key; });
    if (op.value == nullptr) {  // erase
      if (ent != b.entries.end()) {
        snap.bytes -= ent->first.size() + ent->second.size();
        --snap.keys;
        b.entries.erase(ent);
      }
    } else if (ent != b.entries.end()) {
      snap.bytes += op.value->size();
      snap.bytes -= ent->second.size();
      ent->second = *op.value;
    } else {
      snap.bytes += op.key->size() + op.value->size();
      ++snap.keys;
      b.entries.emplace_back(*op.key, *op.value);
    }
  };

  std::size_t upserts = 0;
  for (const Op& op : ops) upserts += op.value != nullptr;
  if (base.keys + upserts > (base.mask + 1) * kGrowLoad) {
    // The batch could push the load factor past kGrowLoad: rehash the
    // base into a table sized for base + batch *before* applying, so
    // every op probes a short bucket (applying a large first publish into
    // the 8 starting buckets would be quadratic). Grow-only; the TE table
    // never shrinks enough for the churn to pay off. One rebuild at most.
    auto grown = std::make_shared<Snapshot>();
    grown->version = version;
    grown->keys = base.keys;
    grown->bytes = base.bytes;
    const std::size_t nb = next_pow2(
        std::max(kMinBuckets, (base.keys + upserts) / kTargetLoad));
    grown->mask = nb - 1;
    std::vector<Bucket> tmp(nb);
    for (const auto& bucket : base.buckets) {
      for (const auto& entry : bucket->entries) {
        tmp[mix64(key_hash(entry.first)) & grown->mask].entries.push_back(
            entry);
      }
    }
    // A large batch scatters over a table that outgrows the caches: fetch
    // each op's bucket a few ops ahead so the misses overlap.
    constexpr std::size_t kPrefetchAhead = 16;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (i + kPrefetchAhead < ops.size()) {
        __builtin_prefetch(
            &tmp[mix64(ops[i + kPrefetchAhead].hash) & grown->mask]);
      }
      apply(ops[i], tmp[mix64(ops[i].hash) & grown->mask], *grown);
    }
    grown->buckets.reserve(nb);
    for (Bucket& b : tmp) {
      grown->buckets.push_back(b.entries.empty()
                                   ? empty_bucket()
                                   : std::make_shared<Bucket>(std::move(b)));
    }
    snapshot_rebuilds_.fetch_add(1, std::memory_order_relaxed);
    return grown;
  }

  auto next = std::make_shared<Snapshot>(base);  // shares all buckets
  next->version = version;
  // Clone each touched bucket once; apply ops in order so the last write
  // of a key wins (redo-log replay relies on this).
  std::unordered_map<std::size_t, std::shared_ptr<Bucket>> touched;
  for (const Op& op : ops) {
    const std::size_t idx = mix64(op.hash) & next->mask;
    auto it = touched.find(idx);
    if (it == touched.end()) {
      it = touched
               .emplace(idx, std::make_shared<Bucket>(*next->buckets[idx]))
               .first;
    }
    apply(op, *it->second, *next);
  }
  for (auto& [idx, bucket] : touched) next->buckets[idx] = std::move(bucket);
  return next;
}

Version KvStore::publish_delta(const KvDelta& delta) {
  // Serialized: versions are assigned and installed in order, so a
  // reader can rely on "shard tag <= observed version" to detect a
  // publish in flight (multi_get's seqlock check).
  std::lock_guard publish_lock(publish_mu_);
  const Version next = version_.load(std::memory_order_relaxed) + 1;

  std::vector<std::vector<Op>> per_shard(shards_.size());
  for (const auto& [key, value] : delta.upserts) {
    const std::size_t h = key_hash(key);
    per_shard[h % shards_.size()].push_back(Op{&key, &value, h});
  }
  for (const std::string& key : delta.erases) {
    const std::size_t h = key_hash(key);
    per_shard[h % shards_.size()].push_back(Op{&key, nullptr, h});
  }
  delta_keys_.fetch_add(delta.upserts.size() + delta.erases.size(),
                        std::memory_order_relaxed);
  delta_bytes_.fetch_add(delta.bytes(), std::memory_order_relaxed);

  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (per_shard[i].empty()) continue;
    Shard& s = *shards_[i];
    std::lock_guard lock(s.mu);
    if (!s.up) {
      // Buffer this publish's share into the redo log, tagged with the
      // version, so recovery replays it in order against later publishes.
      for (const Op& op : per_shard[i]) {
        RedoEntry e;
        e.key = *op.key;
        if (op.value != nullptr) {
          e.value = *op.value;
        } else {
          e.is_erase = true;
        }
        e.publish_version = next;
        s.redo.push_back(std::move(e));
        redo_buffered_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    install_locked(s, apply_ops(*s.owner, per_shard[i], next));
  }
  // All installs precede the bump: a reader that sees `next` finds every
  // up shard already serving it (release/acquire on version_).
  version_.store(next, std::memory_order_seq_cst);
  return next;
}

void KvStore::set_shard_up(std::size_t shard, bool up) {
  if (shard >= shards_.size()) {
    throw std::out_of_range("shard index out of range");
  }
  Shard& s = *shards_[shard];
  std::lock_guard lock(s.mu);
  if (s.up == up) return;
  if (!up) {
    s.up = false;
    s.up_flag.store(false, std::memory_order_seq_cst);
    return;
  }
  // Recovery: replay the redo log in version order (publishes are
  // serialized, so that is arrival order) — every entry lands exactly as
  // it would have with the shard up — and tag the snapshot with the
  // newest replayed publish version so consistent batched reads account
  // for the catch-up state correctly.
  if (!s.redo.empty()) {
    std::vector<Op> ops;
    ops.reserve(s.redo.size());
    for (const RedoEntry& e : s.redo) {
      ops.push_back(Op{&e.key, e.is_erase ? nullptr : &e.value,
                       key_hash(e.key)});
    }
    install_locked(s,
                   apply_ops(*s.owner, ops, s.redo.back().publish_version));
    redo_replayed_.fetch_add(ops.size(), std::memory_order_relaxed);
    s.redo.clear();
  }
  s.up = true;
  s.up_flag.store(true, std::memory_order_seq_cst);
}

bool KvStore::shard_up(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("shard index out of range");
  }
  return shards_[shard]->up_flag.load(std::memory_order_seq_cst);
}

GetResult KvStore::try_get(const std::string& key) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t h = key_hash(key);
  const Shard& s = *shards_[h % shards_.size()];
  s.queries.fetch_add(1, std::memory_order_relaxed);

  GetResult out;
  // Loading the version before the snapshot guarantees the snapshot
  // reflects every publish <= v0; a newer tag means a publish landed in
  // between and the read reflects it too.
  const Version v0 = version_.load(std::memory_order_seq_cst);
  out.version = v0;
  if (!s.up_flag.load(std::memory_order_seq_cst)) {
    unavailable_.fetch_add(1, std::memory_order_relaxed);
    out.status = GetStatus::kUnavailable;
    return out;
  }
  util::EpochGuard guard(util::EpochDomain::global());
  const Snapshot* snap = s.live.load(std::memory_order_seq_cst);
  out.version = std::max(v0, snap->version);
  const Bucket& b = *snap->buckets[mix64(h) & snap->mask];
  for (const auto& [k, v] : b.entries) {
    if (k == key) {
      out.status = GetStatus::kOk;
      out.value = v;
      return out;
    }
  }
  out.status = GetStatus::kMiss;
  return out;
}

MultiGetResult KvStore::multi_get(
    const std::vector<std::string>& keys) const {
  multi_gets_.fetch_add(1, std::memory_order_relaxed);
  queries_.fetch_add(keys.size(), std::memory_order_relaxed);

  MultiGetResult out;
  out.entries.assign(keys.size(), GetResult{});

  std::vector<std::size_t> hash(keys.size());
  std::vector<std::size_t> shard_of(keys.size());
  std::vector<std::uint32_t> involved(shards_.size(), 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    hash[i] = key_hash(keys[i]);
    shard_of[i] = hash[i] % shards_.size();
    ++involved[shard_of[i]];
  }
  // One counter update per involved shard, not per key: the batch is the
  // unit of bookkeeping just as it is the unit of consistency.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (involved[s] != 0) {
      shards_[s]->queries.fetch_add(involved[s], std::memory_order_relaxed);
    }
  }

  std::vector<const Snapshot*> snaps(shards_.size(), nullptr);
  for (int attempt = 0; attempt < kMultiGetAttempts; ++attempt) {
    const bool last = attempt + 1 == kMultiGetAttempts;
    const Version v0 = version_.load(std::memory_order_seq_cst);
    util::EpochGuard guard(util::EpochDomain::global());

    // One pointer load per involved shard; a tag newer than v0 means a
    // publish is mid-flight across shards — retry for a clean cut.
    bool in_flight = false;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      snaps[s] = nullptr;
      if (!involved[s]) continue;
      if (!shards_[s]->up_flag.load(std::memory_order_seq_cst)) continue;
      const Snapshot* snap =
          shards_[s]->live.load(std::memory_order_seq_cst);
      if (snap->version > v0) in_flight = true;
      snaps[s] = snap;
    }
    if (in_flight && !last) {
      multi_get_retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (in_flight) {
      out.consistent = false;
      multi_get_inconsistent_.fetch_add(1, std::memory_order_relaxed);
    }
    out.version = v0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      GetResult& r = out.entries[i];
      r.version = v0;
      const Snapshot* snap = snaps[shard_of[i]];
      if (snap == nullptr) {
        unavailable_.fetch_add(1, std::memory_order_relaxed);
        r.status = GetStatus::kUnavailable;
        continue;
      }
      const Bucket& b = *snap->buckets[mix64(hash[i]) & snap->mask];
      r.status = GetStatus::kMiss;
      for (const auto& [k, v] : b.entries) {
        if (k == keys[i]) {
          r.status = GetStatus::kOk;
          r.value = v;
          break;
        }
      }
    }
    return out;  // values were copied under the epoch guard
  }
  return out;  // unreachable: the last attempt always returns
}

Version KvStore::reset_to(const KvDelta& snapshot, Version version) {
  std::lock_guard publish_lock(publish_mu_);
  if (version < version_.load(std::memory_order_relaxed)) {
    throw std::invalid_argument("reset_to cannot rewind the version");
  }
  std::vector<std::vector<Op>> per_shard(shards_.size());
  for (const auto& [key, value] : snapshot.upserts) {
    const std::size_t h = key_hash(key);
    per_shard[h % shards_.size()].push_back(Op{&key, &value, h});
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    std::lock_guard lock(s.mu);
    // Start from an empty table: the snapshot replaces everything,
    // including state a partitioned replica kept that was since erased.
    Snapshot empty;
    empty.mask = kMinBuckets - 1;
    empty.buckets.assign(kMinBuckets, empty_bucket());
    install_locked(s, apply_ops(empty, per_shard[i], version));
    s.redo.clear();  // superseded by the snapshot
    s.up = true;
    s.up_flag.store(true, std::memory_order_seq_cst);
  }
  version_.store(version, std::memory_order_seq_cst);
  return version;
}

std::size_t KvStore::size() const {
  std::size_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard lock(s->mu);
    total += s->owner->keys;
  }
  return total;
}

std::size_t KvStore::payload_bytes() const {
  std::size_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard lock(s->mu);
    total += s->owner->bytes;
  }
  return total;
}

std::uint64_t KvStore::shard_query_count(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("shard index out of range");
  }
  return shards_[shard]->queries.load(std::memory_order_relaxed);
}

void KvStore::bind_metrics(obs::MetricsRegistry& registry,
                           const std::string& prefix) const {
  registry.expose_counter(prefix + ".queries",
                          [this]() { return query_count(); });
  registry.expose_counter(prefix + ".unavailable",
                          [this]() { return unavailable_count(); });
  registry.expose_counter(prefix + ".version",
                          [this]() { return version(); });
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    registry.expose_counter(
        prefix + ".shard" + std::to_string(i) + ".queries",
        [this, i]() { return shard_query_count(i); });
  }
  registry.expose_gauge(prefix + ".keys", [this]() {
    return static_cast<double>(size());
  });
  registry.expose_gauge(prefix + ".bytes", [this]() {
    return static_cast<double>(payload_bytes());
  });
  registry.expose_counter(prefix + ".snapshot.installs",
                          [this]() { return snapshot_installs(); });
  registry.expose_counter(prefix + ".snapshot.rebuilds",
                          [this]() { return snapshot_rebuilds(); });
  // Process-wide: snapshots of every store awaiting epoch reclamation.
  registry.expose_gauge(prefix + ".snapshot.pending", []() {
    return static_cast<double>(util::EpochDomain::global().pending());
  });
  registry.expose_counter(prefix + ".delta_bytes",
                          [this]() { return delta_bytes(); });
  registry.expose_counter(prefix + ".delta_keys",
                          [this]() { return delta_keys(); });
  registry.expose_counter(prefix + ".multi_gets",
                          [this]() { return multi_get_count(); });
  registry.expose_counter(prefix + ".multi_get.retries",
                          [this]() { return multi_get_retries(); });
  registry.expose_counter(prefix + ".redo.buffered",
                          [this]() { return redo_buffered(); });
  registry.expose_counter(prefix + ".redo.replayed",
                          [this]() { return redo_replayed(); });
}

}  // namespace megate::ctrl

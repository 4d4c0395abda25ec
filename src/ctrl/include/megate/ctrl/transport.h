#pragma once
// The TE-database transport seam: everything the controller and the
// endpoint agents do against the TE database, as an abstract interface.
//
// Two implementations exist. InProcessTransport (here) forwards to a
// KvStore in the same address space — the single-process control loop;
// every caller holding a bare KvStore wraps it in one. TcpKvTransport
// (src/net) speaks the length-prefixed binary protocol of DESIGN.md §11
// to real megate_shardd processes over non-blocking TCP. The chaos
// harness runs the same seeded FaultPlan against either and asserts the
// report fingerprints are bit-identical — the interface is the contract
// that makes "multi-process" a drop-in property instead of a fork of the
// control loop.
//
// Semantics every implementation must honour (they are what the PR-1..4
// invariants rest on):
//   - version() never goes backwards and is available while any shard
//     is reachable (the paper's always-on version front cache);
//   - get/multi_get distinguish a missing key (kMiss) from an
//     unreachable or recovering shard (kUnavailable);
//   - multi_get returns one consistent (version, values) cut, seqlock
//     style, with `consistent == false` only after the retry budget;
//   - publish_delta atomically applies the delta and bumps the version;
//     shards that are down buffer the write (redo log / catch-up resync)
//     and recover it before serving reads again;
//   - set_shard_up(i, false/true) is the fault seam the injector drives:
//     down means reads refuse, writes buffer; up means recovery replay
//     completed before the call returns.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "megate/ctrl/kvstore.h"

namespace megate::ctrl {

class KvTransport {
 public:
  virtual ~KvTransport() = default;

  /// Cheap version query (the endpoint heart of the pull loop).
  virtual Version version() = 0;

  /// Shard-aware single-key read.
  virtual GetResult get(const std::string& key) = 0;

  /// One consistent (version, values) cut — the batched pull primitive.
  virtual MultiGetResult multi_get(const std::vector<std::string>& keys) = 0;

  /// Publishes changed keys only; down shards buffer their share. The
  /// one write every implementation provides.
  virtual Version publish_delta(const KvDelta& delta) = 0;

  /// A publish_delta of `batch` as upserts.
  virtual Version publish(
      const std::vector<std::pair<std::string, std::string>>& batch);

  /// A publish_delta of the one key: it bumps the version too.
  virtual void put(const std::string& key, std::string value);

  /// Shard fan-out of the keyspace (targets for the fault planner).
  virtual std::size_t num_shards() const = 0;
  /// Shard a key lives on (stable hash; for tests and fault planning).
  virtual std::size_t shard_index(const std::string& key) const = 0;

  /// Fault seam: marks one shard down/up. Implementations map this onto
  /// their failure domain — KvStore::set_shard_up in process, an admin
  /// frame or a process kill/restart + resync over TCP.
  virtual void set_shard_up(std::size_t shard, bool up) = 0;
  virtual bool shard_up(std::size_t shard) const = 0;

  /// Human-readable transport name ("in-process", "tcp") for logs.
  virtual const char* name() const noexcept = 0;
};

/// The single-process path: every call forwards to a KvStore in this
/// address space. `store` must outlive the transport.
class InProcessTransport final : public KvTransport {
 public:
  explicit InProcessTransport(KvStore* store);

  Version version() override;
  GetResult get(const std::string& key) override;
  MultiGetResult multi_get(const std::vector<std::string>& keys) override;
  Version publish_delta(const KvDelta& delta) override;
  std::size_t num_shards() const override;
  std::size_t shard_index(const std::string& key) const override;
  void set_shard_up(std::size_t shard, bool up) override;
  bool shard_up(std::size_t shard) const override;
  const char* name() const noexcept override { return "in-process"; }

  KvStore& store() noexcept { return *store_; }

 private:
  KvStore* store_;
};

}  // namespace megate::ctrl

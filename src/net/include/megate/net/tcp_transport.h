#pragma once
// ctrl::KvTransport over real sockets: one ShardChannel per
// megate_shardd process. Key placement is identical to the in-process
// KvStore (std::hash(key) % shard count), so the same keys land on the
// same logical shard under both transports — a precondition for the
// transport-differential suite's identical sync-lag distributions.
//
// Version management (§11): the controller-role transport is the single
// writer and assigns global versions itself. Every publish is streamed
// to EVERY server — shards whose sub-delta is empty still receive an
// empty delta so their local KvStore version stays contiguous with the
// global one. A server that answers kNeedResync (it died and missed
// publishes) is caught up with a snapshot-flagged publish built from the
// transport's live mirror and applied via KvStore::reset_to.
//
// Fan-out is pipelined: multi_get and replicate send every shard's
// request before awaiting any response, so the servers work in parallel
// and a fan-out costs one round trip. An agent-role multi_get cuts at the
// version its last version() poll cached and pays a fresh VERSION round
// trip only when that cache is empty or a shard answers above it; a
// shard is accepted only at exactly the cut version, so the cut stays
// consistent either way.
//
// Waits spin before they block: each channel probes its socket with
// non-blocking recvs for ~100 µs before it sleeps in poll(), and a shard
// server that has just served a request keeps polling epoll without
// sleeping for ~100 µs, so a round trip inside a pull round pays no
// cross-CPU wakeup on either end (DESIGN.md §11, "Wait strategy").
//
// Thread model: single-threaded by contract, like the chaos loop that
// drives it. Not a general-purpose concurrent client.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "megate/ctrl/transport.h"
#include "megate/net/channel.h"
#include "megate/obs/metrics.h"

namespace megate::net {

struct TcpTransportOptions {
  /// One shardd listen port per logical shard, shard-index order.
  std::vector<std::uint16_t> ports;
  std::uint8_t role = HelloMsg::kRoleController;
  std::string peer_name = "controller";
  int connect_timeout_ms = 1000;
  int request_timeout_ms = 1000;
  int backoff_initial_ms = 50;
  int backoff_cap_ms = 2000;
};

class TcpKvTransport final : public ctrl::KvTransport {
 public:
  explicit TcpKvTransport(TcpTransportOptions options);
  ~TcpKvTransport() override;

  // --- ctrl::KvTransport ---------------------------------------------------
  ctrl::Version version() override;
  ctrl::GetResult get(const std::string& key) override;
  ctrl::MultiGetResult multi_get(
      const std::vector<std::string>& keys) override;
  ctrl::Version publish_delta(const ctrl::KvDelta& delta) override;
  std::size_t num_shards() const override { return channels_.size(); }
  std::size_t shard_index(const std::string& key) const override;
  /// Admin fault seam: forwards SET_SHARD_UP to the shard's server (the
  /// TCP analog of KvStore::set_shard_up; chaos kAdmin mode).
  void set_shard_up(std::size_t shard, bool up) override;
  bool shard_up(std::size_t shard) const override;
  const char* name() const noexcept override { return "tcp"; }

  // --- chaos / recovery seam ----------------------------------------------
  /// Failure-detector hint for shard `i` (kill/SIGSTOP chaos modes):
  /// false makes every touch of the shard fail instantly instead of
  /// eating a wall-clock timeout.
  void set_reachable(std::size_t shard, bool reachable);
  /// Reconnects shard `i` and replays its full state (snapshot publish
  /// at the current version) — the TCP analog of the redo-log replay
  /// that set_shard_up(true) performs in process. Returns true when the
  /// server confirmed the snapshot.
  bool resync_shard(std::size_t shard);

  /// Direct channel access (handshake data, stats, backoff tests).
  ShardChannel& channel(std::size_t shard) { return *channels_[shard]; }
  const ShardChannel& channel(std::size_t shard) const {
    return *channels_[shard];
  }

  /// Requests the transport has failed against unreachable/down shards.
  std::uint64_t unavailable_results() const noexcept { return unavailable_; }

  /// Exposes per-channel request/codec counters under `<prefix>.`.
  void bind_metrics(obs::MetricsRegistry& registry,
                    const std::string& prefix = "net.client") const;

 private:
  /// Publishes `delta` (split per shard) as exactly `version` to every
  /// server, resyncing any server that reports a gap.
  void replicate(const ctrl::KvDelta& delta, ctrl::Version version);
  /// Snapshot of shard `i`'s full state from the live mirror.
  ctrl::KvDelta shard_snapshot(std::size_t shard) const;
  bool send_publish(std::size_t shard, const ctrl::KvDelta& delta,
                    ctrl::Version version, bool snapshot);
  /// Await half of send_publish: handles the server's answer to request
  /// `id`, resyncing the shard with a snapshot on kNeedResync.
  bool finish_publish(std::size_t shard, std::uint32_t id,
                      ctrl::Version version, bool snapshot);

  TcpTransportOptions options_;
  std::vector<std::unique_ptr<ShardChannel>> channels_;
  std::vector<bool> admin_up_;
  /// Controller-side mirror of the whole table — the snapshot source for
  /// resync (the transport-level redo log, compacted).
  std::unordered_map<std::string, std::string> table_;
  /// Highest version this transport has assigned (controller role) or
  /// observed (agent role).
  ctrl::Version self_version_ = 0;
  std::uint64_t unavailable_ = 0;
  std::size_t preferred_ = 0;  ///< version() round-robin cursor
};

}  // namespace megate::net

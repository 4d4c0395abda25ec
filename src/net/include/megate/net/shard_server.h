#pragma once
// megate_shardd's engine: one TE-DB shard served over the §11 wire
// protocol on an epoll loop. The process owns exactly ONE logical shard
// (a single-shard KvStore) — sharding is the client's job (key hash %
// number of servers), which is what makes a process kill equivalent to
// the in-process set_shard_up(false) fault seam.
//
// Versioning: the controller-side transport streams EVERY global version
// to every server (empty per-shard deltas still bump the version), so a
// healthy server's KvStore version tracks the global version exactly. A
// publish arriving with a version gap means the server missed traffic
// (it was dead): it answers kNeedResync and the client follows up with a
// snapshot-flagged publish applied via KvStore::reset_to.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "megate/ctrl/kvstore.h"
#include "megate/net/event_loop.h"
#include "megate/net/frame.h"
#include "megate/net/socket.h"
#include "megate/obs/metrics.h"

namespace megate::net {

struct ShardServerOptions {
  std::uint16_t port = 0;  ///< 0 = kernel-assigned
  /// Restarted-after-crash mode: reads answer kUnavailable until the
  /// first successful publish/snapshot closes the stale-read window.
  bool recovering = false;
  std::string name = "shardd";
};

class ShardServer {
 public:
  struct Stats {
    std::uint64_t connections = 0;
    std::uint64_t frames = 0;          ///< valid frames handled
    std::uint64_t publishes = 0;       ///< deltas applied
    std::uint64_t snapshots = 0;       ///< reset_to catch-ups applied
    std::uint64_t stale_publishes = 0;
    std::uint64_t resyncs_requested = 0;
    std::uint64_t errors_sent = 0;
    std::uint64_t poisoned_streams = 0;
  };

  ShardServer(ctrl::KvStore* kv, ShardServerOptions options);
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Binds and listens. False on failure (port in use, no epoll).
  bool start();
  std::uint16_t port() const noexcept { return port_; }

  /// One event-loop iteration; returns epoll dispatch count (-1 error).
  /// Within a short window after the last dispatched event it polls
  /// without sleeping, and only then blocks up to `timeout_ms`.
  int poll(int timeout_ms);
  /// Serves until `stop` becomes true.
  void run(const std::atomic<bool>& stop);
  /// Makes a concurrent run() iteration return promptly.
  void wake() { loop_.wake(); }

  bool recovering() const noexcept { return recovering_; }
  const Stats& stats() const noexcept { return stats_; }
  /// Decoder drop-reasons aggregated across all connections (closed
  /// connections fold their counts in here).
  const CodecCounters& codec_counters() const noexcept { return codec_; }

  /// Exposes server + codec counters in `registry` under `<prefix>.`.
  void bind_metrics(obs::MetricsRegistry& registry,
                    const std::string& prefix = "net.server") const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Connection {
    Fd fd;
    FrameDecoder decoder;
    std::string outbuf;
    std::size_t out_pos = 0;
    bool want_write = false;  ///< kWritable is in the loop's interest mask
  };

  void accept_pending();
  void on_connection_event(int fd, std::uint32_t events);
  void handle_frame(Connection& c, const Frame& f);
  void send_frame(Connection& c, FrameType type, std::uint32_t request_id,
                  std::string_view payload);
  void send_error(Connection& c, std::uint32_t request_id,
                  const std::string& message);
  /// Flushes outbuf; toggles kWritable interest on partial writes.
  void flush(Connection& c);
  /// Changes c's kWritable interest, calling into epoll only on a change.
  void set_write_interest(Connection& c, bool want);
  void close_connection(int fd);

  ctrl::KvStore* kv_;
  ShardServerOptions options_;
  EventLoop loop_;
  Fd listen_;
  std::uint16_t port_ = 0;
  bool recovering_ = false;
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  /// When poll() last dispatched an event: opens its spin window.
  Clock::time_point last_dispatch_{};
  Stats stats_;
  CodecCounters codec_;
};

}  // namespace megate::net

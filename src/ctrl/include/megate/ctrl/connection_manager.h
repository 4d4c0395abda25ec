#pragma once
// Discrete-event simulation of the top-down alternative (§3.2, Fig. 4a):
// a controller that keeps a persistent heartbeat connection to every
// endpoint. Used by the Fig. 13 bench to reproduce the pressure test
// without needing 6,000 real sockets in the CI container: connection
// bookkeeping, heartbeat processing and config pushes are all accounted
// in calibrated work units (one unit = the CPU cost of one heartbeat).
//
// Connection drops (fault injection): drop_connections severs live
// connections; each reconnects after reconnect_delay_s at a calibrated
// handshake cost. While dropped, the affected endpoints receive no pushes
// — the top-down analogue of the pull loop's stale window.

#include <cstdint>
#include <deque>
#include <utility>

namespace megate::ctrl {

/// The heartbeat rate and the per-heartbeat, per-push, per-reconnect and
/// per-connection costs are fixed in connection_manager.cpp.
struct ConnectionManagerOptions {
  /// Time a dropped endpoint waits before reconnecting.
  double reconnect_delay_s = 1.0;
};

class ConnectionManager {
 public:
  explicit ConnectionManager(ConnectionManagerOptions options = {})
      : options_(options) {}

  /// Opens `count` additional connections.
  void connect(std::uint64_t count) { connections_ += count; }
  void disconnect(std::uint64_t count) {
    connections_ = count > connections_ ? 0 : connections_ - count;
  }

  /// Severs `count` live connections (peer crash, middlebox reset). They
  /// re-establish reconnect_delay_s later, during a subsequent run().
  void drop_connections(std::uint64_t count);

  /// Advances the simulation by `seconds`, processing heartbeats and any
  /// reconnects that come due within the window.
  void run(double seconds);

  /// Pushes a config to every live connection (a TE update).
  void push_config_all();

  std::uint64_t connections() const noexcept { return connections_; }
  std::uint64_t heartbeats_processed() const noexcept {
    return heartbeats_;
  }
  std::uint64_t drops() const noexcept { return drops_; }
  std::uint64_t reconnects() const noexcept { return reconnects_; }
  /// Connections currently waiting out the reconnect delay.
  std::uint64_t pending_reconnects() const noexcept;
  /// Mean CPU utilization of one core over the simulated time (can exceed
  /// 1.0: the single-threaded event loop is oversubscribed).
  double cpu_utilization() const noexcept;
  double memory_mb() const noexcept;
  double simulated_seconds() const noexcept { return sim_time_s_; }

 private:
  ConnectionManagerOptions options_;
  std::uint64_t connections_ = 0;
  std::uint64_t heartbeats_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t reconnects_ = 0;
  /// (due time, count) batches of dropped connections, due-time ascending.
  std::deque<std::pair<double, std::uint64_t>> reconnect_queue_;
  double busy_s_ = 0.0;
  double sim_time_s_ = 0.0;
};

}  // namespace megate::ctrl

#pragma once
// Discrete-event simulation of the top-down alternative (§3.2, Fig. 4a):
// a controller that keeps a persistent heartbeat connection to every
// endpoint. Used by the Fig. 13 bench to reproduce the pressure test
// without needing 6,000 real sockets in the CI container: connection
// bookkeeping, heartbeat processing and config pushes are all accounted
// in calibrated work units (one unit = the CPU cost of one heartbeat).
// The heartbeat rate and the per-heartbeat, per-push and per-connection
// costs are fixed in connection_manager.cpp.

#include <cstdint>

namespace megate::ctrl {

class ConnectionManager {
 public:
  /// Opens `count` additional connections.
  void connect(std::uint64_t count) { connections_ += count; }

  /// Advances the simulation by `seconds`, processing heartbeats.
  void run(double seconds);

  /// Pushes a config to every live connection (a TE update).
  void push_config_all();

  std::uint64_t connections() const noexcept { return connections_; }
  std::uint64_t heartbeats_processed() const noexcept {
    return heartbeats_;
  }
  /// Mean CPU utilization of one core over the simulated time (can exceed
  /// 1.0: the single-threaded event loop is oversubscribed).
  double cpu_utilization() const noexcept;
  double memory_mb() const noexcept;
  double simulated_seconds() const noexcept { return sim_time_s_; }

 private:
  std::uint64_t connections_ = 0;
  std::uint64_t heartbeats_ = 0;
  double busy_s_ = 0.0;
  double sim_time_s_ = 0.0;
};

}  // namespace megate::ctrl

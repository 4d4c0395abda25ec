#include "megate/ctrl/connection_manager.h"

namespace megate::ctrl {
namespace {

constexpr double kHeartbeatIntervalS = 1.0;
/// CPU seconds consumed per heartbeat; calibrated so 6,000 connections
/// at 1 Hz occupy 90% of one core (paper Fig. 13): 0.9 / 6000.
constexpr double kCpuSecondsPerHeartbeat = 0.9 / 6000.0;
/// Kernel + user memory per connection; 750 MB / 6000 (Fig. 13).
constexpr double kMemoryKbPerConn = 750.0 * 1024.0 / 6000.0;
constexpr double kCpuSecondsPerPush = 2.5e-4;  ///< config push is heavier

}  // namespace

void ConnectionManager::run(double seconds) {
  // Each connection produces heartbeat_interval-spaced keepalives; over a
  // window the expected count is time/interval per connection.
  const double end = sim_time_s_ + seconds;
  const double span = end - sim_time_s_;
  if (span > 0.0) {
    const double beats =
        span / kHeartbeatIntervalS * static_cast<double>(connections_);
    heartbeats_ += static_cast<std::uint64_t>(beats);
    busy_s_ += beats * kCpuSecondsPerHeartbeat;
  }
  sim_time_s_ = end;
}

void ConnectionManager::push_config_all() {
  busy_s_ += static_cast<double>(connections_) *
             kCpuSecondsPerPush;
}

double ConnectionManager::cpu_utilization() const noexcept {
  return sim_time_s_ > 0.0 ? busy_s_ / sim_time_s_ : 0.0;
}

double ConnectionManager::memory_mb() const noexcept {
  return static_cast<double>(connections_) * kMemoryKbPerConn /
         1024.0;
}

}  // namespace megate::ctrl

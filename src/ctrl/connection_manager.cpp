#include "megate/ctrl/connection_manager.h"

#include <algorithm>

namespace megate::ctrl {
namespace {

constexpr double kHeartbeatIntervalS = 1.0;
/// CPU seconds consumed per heartbeat; calibrated so 6,000 connections
/// at 1 Hz occupy 90% of one core (paper Fig. 13): 0.9 / 6000.
constexpr double kCpuSecondsPerHeartbeat = 0.9 / 6000.0;
/// Kernel + user memory per connection; 750 MB / 6000 (Fig. 13).
constexpr double kMemoryKbPerConn = 750.0 * 1024.0 / 6000.0;
constexpr double kCpuSecondsPerPush = 2.5e-4;  ///< config push is heavier
/// TCP + TLS handshake cost when a dropped connection re-establishes.
constexpr double kCpuSecondsPerReconnect = 1e-3;

}  // namespace

void ConnectionManager::drop_connections(std::uint64_t count) {
  count = std::min(count, connections_);
  if (count == 0) return;
  connections_ -= count;
  drops_ += count;
  reconnect_queue_.emplace_back(sim_time_s_ + options_.reconnect_delay_s,
                                count);
}

std::uint64_t ConnectionManager::pending_reconnects() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [due, count] : reconnect_queue_) total += count;
  return total;
}

void ConnectionManager::run(double seconds) {
  // Each connection produces heartbeat_interval-spaced keepalives; over a
  // window the expected count is time/interval per connection. The window
  // is processed piecewise: each reconnect batch due inside it splits the
  // window, so re-established connections only beat for their remainder.
  double now = sim_time_s_;
  const double end = sim_time_s_ + seconds;
  auto account = [&](double until) {
    const double span = until - now;
    if (span <= 0.0) return;
    const double beats = span / kHeartbeatIntervalS *
                         static_cast<double>(connections_);
    heartbeats_ += static_cast<std::uint64_t>(beats);
    busy_s_ += beats * kCpuSecondsPerHeartbeat;
    now = until;
  };
  while (!reconnect_queue_.empty() && reconnect_queue_.front().first <= end) {
    const auto [due, count] = reconnect_queue_.front();
    reconnect_queue_.pop_front();
    account(std::max(due, now));
    connections_ += count;
    reconnects_ += count;
    busy_s_ += static_cast<double>(count) * kCpuSecondsPerReconnect;
  }
  account(end);
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

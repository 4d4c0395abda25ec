#include "megate/ctrl/sync_model.h"

#include <algorithm>
#include <cmath>

namespace megate::ctrl {
namespace {

// Per-connection costs measured by the paper's pressure test.
constexpr double kCpuFractionPerConn = 0.90 / 6000.0;  ///< of one core
constexpr double kMemoryMbPerConn = 750.0 / 6000.0;
/// Utilization ceiling operators tolerate (§6.4: sustained 90% risks
/// failures, so capacity is provisioned at that ceiling).
constexpr double kCpuCeiling = 0.90;
/// Each KV shard of the TE database sustains this many queries/s
/// (§3.2: 160,000 QPS on two shards).
constexpr double kShardQps = 80000.0;

}  // namespace

double top_down_cpu_percent(std::uint64_t connections) {
  return 100.0 * kCpuFractionPerConn * static_cast<double>(connections);
}

double top_down_memory_mb(std::uint64_t connections) {
  return kMemoryMbPerConn * static_cast<double>(connections);
}

SyncResources top_down_resources(std::uint64_t endpoints) {
  SyncResources r;
  const double raw_cores =
      kCpuFractionPerConn * static_cast<double>(endpoints) / kCpuCeiling;
  r.cpu_cores = std::ceil(raw_cores);
  if (r.cpu_cores < 1.0) r.cpu_cores = 1.0;
  r.memory_gb = kMemoryMbPerConn * static_cast<double>(endpoints) / 1024.0;
  if (r.memory_gb < 0.125) r.memory_gb = 0.125;
  r.db_shards = 0;
  return r;
}

SyncResources bottom_up_resources(std::uint64_t endpoints) {
  SyncResources r;
  // Controller: a single batched write per TE interval — flat cost.
  r.cpu_cores = 1.0;
  r.memory_gb = 1.0;
  // Database: polls spread over the window give endpoints/spread QPS.
  const double qps =
      static_cast<double>(endpoints) / kSpreadIntervalS;
  r.db_shards =
      static_cast<std::uint64_t>(std::max(1.0, std::ceil(qps / kShardQps)));
  return r;
}

}  // namespace megate::ctrl

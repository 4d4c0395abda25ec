#pragma once
// Resource model of TE-configuration synchronization (§6.4, Figs. 13-14).
//
// Calibrated to the paper's pressure-test measurements on a 1-core/1-GB
// cloud VM: 6,000 persistent connections saturate the core at 90% CPU and
// 750 MB of memory, hence ~167 such cores and ~125 GB at one million
// endpoints. The bottom-up design replaces all of that with database
// writes: one core and 1 GB regardless of fleet size, plus database
// shards sized from the paper's 80k QPS-per-shard figure.

#include <cstdint>

namespace megate::ctrl {

struct SyncResources {
  double cpu_cores = 0.0;   ///< cores at the 90%-utilization ceiling
  double memory_gb = 0.0;
  std::uint64_t db_shards = 0;  ///< 0 for the top-down approach
};

// The per-connection costs, the CPU ceiling and the per-shard QPS are
// fixed in sync_model.cpp.

/// Endpoints spread their polls over this window (§3.2: e.g. 10 s).
inline constexpr double kSpreadIntervalS = 10.0;

/// CPU% (of one core, may exceed 100) and memory for `connections`
/// persistent connections on a single VM (Fig. 13).
double top_down_cpu_percent(std::uint64_t connections);
double top_down_memory_mb(std::uint64_t connections);

/// Controller-side resources to keep `endpoints` synchronized top-down:
/// enough cores to stay under the ceiling (Fig. 14).
SyncResources top_down_resources(std::uint64_t endpoints);

/// Bottom-up: the controller needs one core and 1 GB to write configs;
/// the query load lands on the database, sized by QPS.
SyncResources bottom_up_resources(std::uint64_t endpoints);

}  // namespace megate::ctrl

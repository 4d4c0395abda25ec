#pragma once
// Workload definitions and the state one control loop runs on: topology,
// tunnels, endpoints and traffic, the TE database (in process or behind
// two megate_shardd daemons), the controller, and the host agents with
// their HostStacks.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "megate/ctrl/agent.h"
#include "megate/ctrl/controller.h"
#include "megate/ctrl/kvstore.h"
#include "megate/dataplane/host_stack.h"
#include "megate/te/megate_solver.h"
#include "megate/te/online_allocator.h"
#include "megate/tm/endpoints.h"
#include "megate/tm/traffic.h"
#include "megate/topo/generators.h"
#include "megate/topo/tunnels.h"
#include "shard_daemon.h"
#include "timing_transport.h"
#include "trace.h"

namespace loopbench {

/// Instances one host agent serves.
inline constexpr std::uint32_t kInstancesPerAgent = 32;
/// A flash crowd scales a pair's flows by this much. Milder than the
/// DemandStream default (3), so that two crowds per interval do not
/// inflate the matrix over a run.
inline constexpr double kFlashCrowdMultiplier = 1.5;

struct WorkloadSpec {
  std::string name;
  megate::topo::TopologyKind kind = megate::topo::TopologyKind::kB4;
  std::uint64_t endpoints = 0;  ///< exact total after normalization
  std::uint32_t tunnels_per_pair = 3;
  /// Share of ordered site pairs that exchange traffic.
  double active_pair_fraction = 0.6;
  /// > 1: clustered stage 1 (MegaTeOptions::stage1_clusters).
  std::size_t stage1_clusters = 0;
  bool tcp = false;     ///< TE database = two megate_shardd over loopback
  bool faults = false;  ///< one duplex link down mid-interval
  // Churn per interval (tm::ChurnOptions counts).
  std::size_t flow_scale_events = 40;
  std::size_t flash_crowds = 2;
  std::size_t arrivals = 4;
  std::size_t departures = 4;
  std::size_t encap_samples = 64;
  /// Boundary iterations every run measures at least (more when time
  /// allows); sets the fixed tail percentile, see main.cpp.
  std::size_t min_boundaries = 25;
  std::size_t setups = 3;  ///< setups per run; setup_s is their median
};

/// The benchmark workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& workloads();
/// The same workload shrunk to a few hundred endpoints and two
/// intervals (smoke test).
WorkloadSpec toy(const WorkloadSpec& spec);

/// Files the world needs from outside: the daemon binary and where its
/// metrics go.
struct WorldPaths {
  std::string shardd;      ///< megate_shardd binary (tcp workloads)
  std::string scratch_dir; ///< writable directory inside the checkout
};

struct World {
  WorkloadSpec spec;
  std::uint64_t seed = 0;

  megate::topo::Graph graph;
  megate::topo::TunnelOptions tunnel_options;
  megate::topo::TunnelSet tunnels;
  megate::tm::EndpointLayout layout{std::vector<std::uint32_t>{}};
  /// The live matrix: churn events mutate it in place between solves.
  megate::tm::TrafficMatrix traffic;

  // TE database.
  std::unique_ptr<megate::ctrl::KvStore> store;  ///< in-process only
  std::vector<std::unique_ptr<ShardDaemon>> daemons;  ///< tcp only
  std::vector<std::string> daemon_metrics;  ///< per-daemon metrics files
  std::unique_ptr<megate::ctrl::KvTransport> controller_db;
  std::unique_ptr<megate::ctrl::KvTransport> agent_db;
  std::unique_ptr<TimingTransport> controller_seam;
  std::unique_ptr<TimingTransport> agent_seam;
  std::unique_ptr<megate::ctrl::Controller> controller;

  // Host agents: agent i serves up to kInstancesPerAgent consecutive
  // endpoints of one site and owns stacks[i].
  std::vector<std::unique_ptr<megate::dataplane::HostStack>> stacks;
  std::vector<megate::ctrl::EndpointAgent> agents;
  std::vector<std::size_t> first_agent_of_site;

  std::unique_ptr<megate::te::MegaTeSolver> solver;
  std::unique_ptr<megate::te::OnlineAllocator> allocator;

  /// Fault workloads: the inject_link_failures seeds of one fault cycle,
  /// in the order this run fails them. The set is part of the deployment
  /// (the same links fail for every seed); the run seed draws the order.
  /// Interval k fails fault_seeds[k % size()]; fault_slots[k % size()] is
  /// that link's position in the unshuffled set.
  std::vector<std::uint64_t> fault_seeds;
  std::vector<std::size_t> fault_slots;
  /// Fault workloads: the tunnels build_tunnels made. When a failed link
  /// comes back, the tunnels go back to these, so every fault of the
  /// cycle repairs the same tunnel set and repairs do not pile up over a
  /// run (a longer run would otherwise solve on a different instance).
  megate::topo::TunnelSet built_tunnels;

  megate::te::TeProblem problem() const {
    megate::te::TeProblem p;
    p.graph = &graph;
    p.tunnels = &tunnels;
    p.traffic = &traffic;
    return p;
  }
  /// False for endpoints that churn added (DemandStream arrivals): no
  /// host agent serves them.
  bool hosted(megate::tm::EndpointId ep) const {
    const auto site = megate::tm::endpoint_site(ep);
    return site < layout.num_sites() &&
           megate::tm::endpoint_index(ep) < layout.endpoints_at(site);
  }
  std::size_t agent_of(megate::tm::EndpointId ep) const {
    return first_agent_of_site[megate::tm::endpoint_site(ep)] +
           megate::tm::endpoint_index(ep) / kInstancesPerAgent;
  }
  /// The pid the benchmark registered for an instance on its host.
  std::uint32_t pid_of(megate::tm::EndpointId ep) const {
    return 1000 + megate::tm::endpoint_index(ep) % kInstancesPerAgent;
  }
};

/// Builds everything before the bootstrap interval, with one span per
/// phase. Throws std::runtime_error when a shard daemon cannot start.
std::unique_ptr<World> build_world(const WorkloadSpec& spec,
                                   std::uint64_t seed, Tracer& tracer,
                                   const WorldPaths& paths);

/// splitmix64 step: derives independent sub-seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) noexcept;

}  // namespace loopbench

#include "world.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "megate/net/tcp_transport.h"
#include "megate/util/rng.h"

namespace loopbench {

using namespace megate;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;

    // Few sites, many endpoints per pair, database behind TCP: the
    // per-endpoint layers (stage 2, publish, net/KV, pull) carry it, and
    // churn leaves most pairs clean, so the stage-2 memo hits.
    WorkloadSpec b4;
    b4.name = "b4_endpoints";
    b4.kind = topo::TopologyKind::kB4;
    b4.endpoints = 100000;
    b4.active_pair_fraction = 1.0;
    b4.tcp = true;
    w.push_back(b4);

    // Many sites and a link failure per interval: tunnel build carries
    // setup, repair the fault reaction, stage 1 the solves, and the memo
    // is bypassed. The clustered stage 1 keeps each solve short enough
    // for 25 intervals.
    WorkloadSpec cogentco;
    cogentco.name = "cogentco_faults";
    cogentco.kind = topo::TopologyKind::kCogentco;
    cogentco.endpoints = 20000;
    cogentco.tunnels_per_pair = 2;
    cogentco.stage1_clusters = 8;
    cogentco.faults = true;
    w.push_back(cogentco);
    return w;
  }();
  return kWorkloads;
}

WorkloadSpec toy(const WorkloadSpec& spec) {
  WorkloadSpec t = spec;
  t.endpoints = 400;
  t.flow_scale_events = 6;
  t.flash_crowds = 1;
  t.arrivals = 1;
  t.departures = 1;
  t.encap_samples = 8;
  t.min_boundaries = 2;
  t.setups = 2;
  return t;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) noexcept {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

/// The deployment — link capacities, how many endpoints each site hosts
/// and the interval-0 traffic matrix — is part of a workload's definition
/// and the same for every seed. The seed draws how the traffic evolves
/// (every interval's churn) and which links fail.
constexpr std::uint64_t kDeploymentSeed = 42;

/// Offered load relative to routable capacity: total link capacity over
/// the mean shortest-tunnel hop count (the figure benches' rule).
constexpr double kLoad = 0.6;

/// Samples a Weibull layout, then rescales it to exactly `total`
/// endpoints (at least one per site). Heavy-tailed layouts on few sites
/// otherwise miss the target by tens of percent from seed to seed, and
/// every per-endpoint layer would scale with that miss.
tm::EndpointLayout exact_layout(const topo::Graph& g, std::uint64_t total,
                                std::uint64_t seed) {
  const tm::EndpointLayout raw =
      tm::generate_endpoints_with_total(g, total, /*shape=*/0.8, seed);
  const std::vector<std::uint32_t>& raw_sites = raw.per_site();
  const double raw_total = std::max<double>(
      1.0, static_cast<double>(raw.total_endpoints()));
  const std::size_t n = raw_sites.size();
  std::vector<std::uint32_t> per(n);
  std::vector<double> frac(n);
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const double x = static_cast<double>(raw_sites[s]) *
                     static_cast<double>(total) / raw_total;
    per[s] = std::max<std::uint32_t>(1, static_cast<std::uint32_t>(x));
    frac[s] = x - static_cast<double>(per[s]);
    sum += per[s];
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return frac[a] > frac[b];
                   });
  for (std::size_t i = 0; sum < total; i = (i + 1) % n) {
    ++per[order[i]];
    ++sum;
  }
  while (sum > total) {
    const auto big = std::max_element(per.begin(), per.end());
    if (*big <= 1) break;
    --*big;
    --sum;
  }
  return tm::EndpointLayout(std::move(per));
}

double mean_shortest_hops(const topo::TunnelSet& tunnels) {
  double hops = 0.0;
  std::size_t n = 0;
  for (const auto& [pair, ts] : tunnels.all()) {
    if (ts.empty()) continue;
    hops += static_cast<double>(ts.front().hops());
    ++n;
  }
  return n > 0 ? hops / static_cast<double>(n) : 1.0;
}

}  // namespace

std::unique_ptr<World> build_world(const WorkloadSpec& spec,
                                   std::uint64_t seed, Tracer& tracer,
                                   const WorldPaths& paths) {
  auto w = std::make_unique<World>();
  w->spec = spec;
  w->seed = seed;

  {
    auto s = tracer.span(SpanName::kTopology);
    topo::GeneratorOptions gopt;
    gopt.seed = kDeploymentSeed;
    w->graph = topo::make_topology(spec.kind, gopt);
  }
  {
    auto s = tracer.span(SpanName::kBuildTunnels);
    w->tunnel_options.tunnels_per_pair = spec.tunnels_per_pair;
    w->tunnels = topo::build_tunnels(w->graph, w->tunnel_options);
  }
  {
    auto s = tracer.span(SpanName::kTraffic);
    w->layout = exact_layout(w->graph, spec.endpoints, kDeploymentSeed);
    tm::TrafficOptions topt;
    topt.active_pair_fraction = spec.active_pair_fraction;
    topt.target_total_gbps = tm::total_link_capacity_gbps(w->graph) *
                             kLoad / mean_shortest_hops(w->tunnels);
    w->traffic = tm::generate_traffic(w->graph, w->layout, topt,
                                      kDeploymentSeed + 1);
  }

  if (spec.tcp) {
    auto s = tracer.span(SpanName::kShardDaemons);
    std::vector<std::uint16_t> ports;
    for (int i = 0; i < 2; ++i) {
      auto d = std::make_unique<ShardDaemon>();
      const std::string metrics = paths.scratch_dir + "/shard" +
                                  std::to_string(i) + "-" +
                                  std::to_string(seed) + ".json";
      std::string error;
      if (!d->start(paths.shardd, "shard" + std::to_string(i), metrics,
                    &error)) {
        throw std::runtime_error(error);
      }
      ports.push_back(d->port());
      w->daemons.push_back(std::move(d));
      w->daemon_metrics.push_back(metrics);
    }
    net::TcpTransportOptions copt;
    copt.ports = ports;
    copt.role = net::HelloMsg::kRoleController;
    copt.peer_name = "controller";
    // A cold publish of the whole table is one large request; the 1 s
    // default would time it out.
    copt.request_timeout_ms = 60000;
    copt.connect_timeout_ms = 5000;
    net::TcpTransportOptions aopt = copt;
    aopt.role = net::HelloMsg::kRoleAgent;
    aopt.peer_name = "agents";
    w->controller_db = std::make_unique<net::TcpKvTransport>(copt);
    w->agent_db = std::make_unique<net::TcpKvTransport>(aopt);
  } else {
    w->store = std::make_unique<ctrl::KvStore>(2);
    w->controller_db = std::make_unique<ctrl::InProcessTransport>(w->store.get());
    w->agent_db = std::make_unique<ctrl::InProcessTransport>(w->store.get());
  }
  w->controller_seam =
      std::make_unique<TimingTransport>(w->controller_db.get(), &tracer);
  w->agent_seam = std::make_unique<TimingTransport>(w->agent_db.get(), &tracer);
  w->controller = std::make_unique<ctrl::Controller>(
      static_cast<ctrl::KvTransport*>(w->controller_seam.get()));

  {
    auto s = tracer.span(SpanName::kAgents);
    const std::uint32_t per_agent = kInstancesPerAgent;
    std::size_t hosts = 0;
    for (std::uint32_t n : w->layout.per_site()) {
      hosts += (n + per_agent - 1) / per_agent;
    }
    w->stacks.reserve(hosts);
    w->agents.reserve(hosts);
    ctrl::AgentOptions aopt;
    aopt.poll_interval_s = 1.0;
    aopt.retry_backoff_s = 1.0;
    aopt.batch_pull = true;
    for (topo::NodeId site = 0; site < w->layout.num_sites(); ++site) {
      w->first_agent_of_site.push_back(w->agents.size());
      const std::uint32_t n = w->layout.endpoints_at(site);
      for (std::uint32_t first = 0; first < n; first += per_agent) {
        dataplane::HostStackOptions hopt;
        hopt.host_ip = 0x0A000000u + static_cast<std::uint32_t>(w->agents.size());
        auto stack = std::make_unique<dataplane::HostStack>(hopt);
        std::vector<std::uint64_t> ids;
        for (std::uint32_t i = first; i < std::min(n, first + per_agent); ++i) {
          const tm::EndpointId ep = tm::make_endpoint(site, i);
          ids.push_back(ep);
          stack->on_sys_enter_execve(w->pid_of(ep), ep);
        }
        w->agents.emplace_back(std::move(ids), w->agent_seam.get(),
                               stack.get(), aopt);
        w->stacks.push_back(std::move(stack));
      }
    }
  }

  te::MegaTeOptions mopt;
  mopt.threads = std::max(1u, std::thread::hardware_concurrency());
  mopt.stage1_clusters = spec.stage1_clusters;
  w->solver = std::make_unique<te::MegaTeSolver>(mopt);
  w->allocator = std::make_unique<te::OnlineAllocator>();

  if (spec.faults) {
    w->built_tunnels = w->tunnels;
    const std::size_t n = spec.min_boundaries;
    for (std::size_t j = 0; j < n; ++j) w->fault_slots.push_back(j);
    util::Rng rng(mix_seed(seed, 4000));
    for (std::size_t i = n; i > 1; --i) {
      std::swap(w->fault_slots[i - 1],
                w->fault_slots[rng.uniform_int(0, i - 1)]);
    }
    for (std::size_t j : w->fault_slots) {
      w->fault_seeds.push_back(mix_seed(kDeploymentSeed, 1000 + j));
    }
  }
  return w;
}

}  // namespace loopbench

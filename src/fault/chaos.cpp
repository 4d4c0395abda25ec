#include "megate/fault/chaos.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "megate/ctrl/agent.h"
#include "megate/ctrl/iteration.h"
#include "megate/ctrl/kvstore.h"
#include "megate/ctrl/transport.h"
#include "megate/fault/injector.h"
#include "megate/fault/process.h"
#include "megate/net/tcp_transport.h"
#include "megate/obs/metrics.h"
#include "megate/obs/span.h"
#include "megate/te/checker.h"
#include "megate/te/megate_solver.h"
#include "megate/te/online_allocator.h"
#include "megate/tm/demand_stream.h"
#include "megate/tm/traffic.h"
#include "megate/topo/generators.h"
#include "megate/topo/tunnels.h"
#include "megate/util/rng.h"

namespace megate::fault {
namespace {

/// Seed of the scenario's topology (traffic uses kScenarioSeed + 1).
constexpr std::uint64_t kScenarioSeed = 42;
/// Agent tick: the loop advances the injector and every agent this often.
constexpr double kTickS = 1.0;
/// The controller solves against headroom * real capacity (standard WAN
/// operating practice). With <= 0.5, two consecutive configs mixed
/// across lagging agents cannot overload a real link — the transient
/// old/new data-plane states of the eventual-consistency window stay
/// feasible.
constexpr double kSolveHeadroom = 0.5;

std::string time_tag(double t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t=%.3fs ", t);
  return buf;
}

/// Per-pair, flow-index-aligned carriage caps: under churn the matrix
/// demand can outgrow what the control plane reserved, so the policing
/// view (carried = min(demand, reservation)) is what drives link usage —
/// exactly the data-plane rate limiting the reservations model implies.
using PoliceMap = std::unordered_map<topo::SitePair, std::vector<double>,
                                     topo::SitePairHash>;

/// Data-plane view of the agents' installed tables: per-link usage of the
/// demand whose full source-routed path is currently up. Returns the max
/// utilization and fills `routed_gbps` with the demand actually carried.
/// `police` (nullable) caps each flow's carried rate at its reservation.
double installed_utilization(const topo::Graph& graph,
                             const tm::TrafficMatrix& traffic,
                             const ctrl::AgentFleet& fleet,
                             const PoliceMap* police, double* routed_gbps) {
  std::vector<double> usage(graph.num_links(), 0.0);
  double routed = 0.0;
  for (const auto& [pair, flows] : traffic.pairs()) {
    const std::vector<double>* caps = nullptr;
    if (police != nullptr) {
      auto pit = police->find(pair);
      caps = pit != police->end() ? &pit->second : nullptr;
    }
    for (std::size_t fi = 0; fi < flows.size(); ++fi) {
      const tm::EndpointDemand& f = flows[fi];
      double rate = f.demand_gbps;
      if (police != nullptr) {
        rate = std::min(
            rate, caps != nullptr && fi < caps->size() ? (*caps)[fi] : 0.0);
      }
      if (rate <= 0.0) continue;
      const ctrl::EndpointAgent* agent = fleet.agent_of(f.src);
      if (agent == nullptr) continue;
      const auto& hops = agent->hops_for(f.src, pair.dst);
      if (hops.empty()) continue;  // unassigned: falls back to hashing
      // Walk src site -> hops[0] -> ... resolving each step to an up link.
      std::vector<topo::EdgeId> path;
      path.reserve(hops.size());
      topo::NodeId u = pair.src;
      bool alive = true;
      for (std::uint32_t h : hops) {
        topo::EdgeId found = topo::kInvalidEdge;
        for (topo::EdgeId e : graph.out_edges(u)) {
          if (graph.link(e).dst == h && graph.link(e).up) {
            found = e;
            break;
          }
        }
        if (found == topo::kInvalidEdge) {
          alive = false;
          break;
        }
        path.push_back(found);
        u = h;
      }
      if (!alive) continue;  // blackholed until the agent re-syncs
      routed += rate;
      for (topo::EdgeId e : path) usage[e] += rate;
    }
  }
  double max_util = 0.0;
  for (topo::EdgeId e = 0; e < graph.num_links(); ++e) {
    const topo::Link& l = graph.link(e);
    if (l.up && l.capacity_gbps > 0.0) {
      max_util = std::max(max_util, usage[e] / l.capacity_gbps);
    }
  }
  if (routed_gbps != nullptr) *routed_gbps = routed;
  return max_util;
}

}  // namespace

ChaosReport run_chaos(const ChaosOptions& options) {
  ChaosReport report;

  // --- deterministic scenario --------------------------------------------
  topo::GeneratorOptions gopt;
  gopt.seed = kScenarioSeed;
  topo::Graph graph =
      topo::make_isp_like(options.sites, options.duplex_links, gopt);
  const topo::TunnelSet pristine = topo::build_tunnels(graph);
  tm::EndpointLayout layout(std::vector<std::uint32_t>(
      graph.num_nodes(), options.endpoints_per_site));
  tm::TrafficOptions tmo;
  tmo.flows_per_endpoint = 1.5;
  tmo.target_total_gbps =
      tm::total_link_capacity_gbps(graph) * options.load;
  tm::TrafficMatrix traffic =
      tm::generate_traffic(graph, layout, tmo, kScenarioSeed + 1);
  double total_demand = traffic.total_demand_gbps();

  // Demand churn timeline over the whole run (empty when disabled).
  const double horizon_s =
      static_cast<double>(options.intervals) * options.interval_s;
  tm::ChurnOptions churn_opt = options.churn;
  churn_opt.horizon_s = horizon_s;
  tm::DemandStream churn_stream =
      tm::DemandStream::generate(traffic, churn_opt);

  // The controller plans against derated capacities (kSolveHeadroom);
  // the injector and the installed-routes check see real capacities.
  topo::Graph solver_graph = graph;
  for (topo::EdgeId e = 0; e < solver_graph.num_links(); ++e) {
    solver_graph.link(e).capacity_gbps *= kSolveHeadroom;
  }

  // --- control plane ------------------------------------------------------
  // The TE database behind the KvTransport seam: either the in-process
  // KvStore or a fleet of megate_shardd child processes over TCP.
  ctrl::KvStore kv(options.kv_shards);
  ctrl::InProcessTransport local(&kv);
  std::vector<Shardd> shardds;
  std::unique_ptr<net::TcpKvTransport> tcp;
  ctrl::KvTransport* db = &local;
  if (options.transport == ChaosTransportMode::kTcp) {
    if (options.shardd_binary.empty()) {
      throw std::invalid_argument("kTcp chaos requires shardd_binary");
    }
    shardds.resize(options.kv_shards);
    net::TcpTransportOptions topts;
    topts.peer_name = "chaos-controller";
    for (std::size_t i = 0; i < options.kv_shards; ++i) {
      if (!spawn_shardd(options.shardd_binary, 0, /*recover=*/false, i,
                        &shardds[i])) {
        throw std::runtime_error("chaos: failed to spawn megate_shardd");
      }
      topts.ports.push_back(shardds[i].port);
    }
    tcp = std::make_unique<net::TcpKvTransport>(topts);
    db = tcp.get();
  }

  FaultPlanOptions popt = options.plan;
  if (popt.horizon_s <= 0.0) popt.horizon_s = horizon_s;
  const FaultPlan plan = FaultPlan::generate(
      popt, options.kv_shards, graph.num_links() / 2);
  report.last_fault_end_s = plan.last_fault_end_s();

  FaultInjector::Bindings bind;
  // A shard crash is the transport's own seam in process and in TCP
  // kAdmin mode (the daemon's KvStore flips availability and buffers
  // publishes in its redo log); otherwise it is a process-level fault.
  // Recovery runs synchronously inside the call, where the in-process
  // redo-log replay happens in KvStore::set_shard_up(true), so event
  // order, and with it the fingerprint, is the same over every transport.
  bind.set_shard_up = [&](std::size_t shard, bool up) {
    const ShardFaultMode mode = options.shard_fault_mode;
    if (tcp == nullptr || mode == ShardFaultMode::kAdmin) {
      return db->set_shard_up(shard, up);
    }
    Shardd& sd = shardds[shard];
    if (!up) {
      // Failure-detector hint first: requests fail fast instead of
      // eating a wall-clock timeout against a dead peer.
      tcp->set_reachable(shard, false);
      mode == ShardFaultMode::kKillRestart ? sd.proc.terminate()
                                           : (void)sd.proc.stop();
      return;
    }
    if (mode == ShardFaultMode::kKillRestart) {
      Shardd fresh;
      if (!spawn_shardd(options.shardd_binary, sd.port, /*recover=*/true,
                        shard, &fresh)) {
        throw std::runtime_error("chaos: shardd restart failed");
      }
      sd = std::move(fresh);
    } else {
      sd.proc.resume();
    }
    if (!tcp->resync_shard(shard)) {
      throw std::runtime_error("chaos: shard resync failed");
    }
  };
  bind.graph = &graph;
  bind.counters = &report.counters;
  FaultInjector injector(plan, bind);

  obs::MetricsRegistry* reg = options.metrics;

  ctrl::AgentOptions aopt;
  aopt.poll_interval_s = options.poll_interval_s;
  aopt.max_pull_retries = options.max_pull_retries;
  aopt.retry_backoff_s = options.retry_backoff_s;
  aopt.batch_pull = options.batch_pull;
  aopt.fault_hooks = &injector;
  aopt.counters = &report.counters;
  aopt.metrics = reg;
  ctrl::AgentFleet fleet(ctrl::source_instances(traffic),
                         options.instances_per_agent, db, aopt);

  te::MegaTeOptions sopt;
  sopt.metrics = reg;
  sopt.site_lp = options.site_lp;
  te::MegaTeSolver solver(sopt);

  // Under churn the allocator is the ledger of what the control plane
  // reserved: rebased on every full publish, and with online_patch it
  // also patches the plan between solves. It plans on the derated solver
  // graph, so patched routes keep the mixed-state safety argument.
  const bool churn_enabled = !churn_stream.empty();
  te::OnlineOptions oopt;
  oopt.resolve_drift_fraction = options.online_resolve_drift;
  oopt.metrics = options.metrics;
  te::OnlineAllocator allocator(oopt);
  // Policing caps for the installed-routes view: under churn, carried
  // traffic is min(demand, reservation). Reread at every publish.
  PoliceMap police;
  // Problem/tunnels live at loop scope so patched publishes between
  // solves reuse the last solve's topology view.
  topo::TunnelSet repaired;
  te::TeProblem problem;
  problem.graph = &solver_graph;
  problem.tunnels = &repaired;
  problem.traffic = &traffic;
  ctrl::ControlIteration driver(db, solver, topo::TunnelOptions{},
                                churn_enabled ? &allocator : nullptr);
  te::CheckOptions copt;
  copt.capacity_tolerance = options.capacity_tolerance;
  copt.require_flow_assignment = true;

  // Adds what a publish wrote to the run's counters.
  auto count = [&](const ctrl::PublishResult& p) {
    ++report.counters.publishes;
    report.counters.publish_upserts += p.upserts;
    report.counters.publish_erases += p.erases;
    report.counters.publish_delta_bytes += p.bytes;
  };

  // One driver iteration on the current topology: dead tunnels are
  // rebuilt from the pristine set, so surviving tunnel identities stay
  // stable and unaffected routes do not churn.
  auto solve_and_publish = [&](double now_s, IntervalStats& stats) {
    // Mirror the real graph's link states onto the derated solver view.
    for (topo::EdgeId e = 0; e < graph.num_links(); ++e) {
      solver_graph.set_link_state(e, graph.link(e).up);
    }
    repaired = pristine;
    const ctrl::IterationResult it =
        driver.run(problem, repaired, te::SolveContext{}, copt);
    for (const std::string& v : it.check.violations) {
      report.violations.push_back(time_tag(now_s) + "check_solution: " + v);
    }
    ++stats.resolves;
    stats.satisfied_ratio = it.report.solution.satisfied_ratio();
    stats.max_link_utilization = it.check.max_link_utilization;
    if (!it.check.ok) return;  // nothing was published
    count(it.delta);
    if (churn_enabled) police = allocator.reservations_snapshot();
  };

  // Applies every churn event due at `now_s`: the believed matrix moves,
  // and with online_patch the allocator re-fits reservations and the
  // patched routes are published immediately (a full re-solve fires once
  // drift crosses the threshold).
  auto drain_churn = [&](double now_s, IntervalStats& stats) {
    while (const tm::DemandEvent* ev = churn_stream.next_due(now_s)) {
      tm::DemandStream::apply(*ev, traffic);
      report.churn_log.push_back(ev->to_log());
      tm::DemandStream::note_event(reg, *ev);
      total_demand = traffic.total_demand_gbps();
      ++stats.churn_events;
      if (!options.online_patch) continue;
      const te::PatchResult pr = allocator.apply(*ev);
      count(driver.publish(problem, allocator.snapshot()));
      ++stats.online_patches;
      police = allocator.reservations_snapshot();
      if (pr.resolve_recommended) solve_and_publish(now_s, stats);
    }
  };

  // --- the chaos loop -----------------------------------------------------
  const double overload_limit = 1.0 + options.capacity_tolerance;
  for (std::size_t interval = 0; interval < options.intervals; ++interval) {
    const double t0 =
        static_cast<double>(interval) * options.interval_s;
    IntervalStats stats;
    stats.interval = interval;
    stats.start_s = t0;
    stats.agents_total = fleet.agents().size();

    injector.advance_to(t0);
    (void)injector.take_topology_changed();  // this solve sees the change
    // Churn due at the boundary lands before the solve: the boundary
    // solve measures the churned truth (the believed/actual gap opens
    // with the first mid-interval event instead).
    drain_churn(t0, stats);
    solve_and_publish(t0, stats);

    double routed_sum = 0.0;
    std::size_t ticks = 0;
    for (double t = t0 + kTickS;
         t <= t0 + options.interval_s + 1e-9; t += kTickS) {
      injector.advance_to(t);
      if (injector.take_topology_changed()) {
        solve_and_publish(t, stats);
      }
      drain_churn(t, stats);
      fleet.tick(t);

      double routed = 0.0;
      const double util = installed_utilization(
          graph, traffic, fleet, churn_enabled ? &police : nullptr, &routed);
      stats.installed_max_utilization =
          std::max(stats.installed_max_utilization, util);
      if (util > overload_limit) {
        char msg[96];
        std::snprintf(msg, sizeof(msg),
                      "installed routes overload a link: util=%.4f", util);
        report.violations.push_back(time_tag(t) + msg);
      }
      routed_sum += total_demand > 0.0 ? routed / total_demand : 0.0;
      ++ticks;
    }
    stats.routed_demand_ratio =
        ticks > 0 ? routed_sum / static_cast<double>(ticks) : 0.0;
    stats.version = db->version();
    stats.agents_converged = fleet.at_version(stats.version);
    if (reg != nullptr) {
      reg->histogram("chaos.interval.routed_demand_ratio")
          .observe(stats.routed_demand_ratio);
      reg->histogram("chaos.interval.installed_max_utilization")
          .observe(stats.installed_max_utilization);
      reg->counter("chaos.resolves").inc(stats.resolves);
    }
    report.intervals.push_back(stats);
  }

  // --- convergence invariant ---------------------------------------------
  report.final_version = db->version();
  const std::size_t final_converged = fleet.at_version(report.final_version);
  report.all_converged = final_converged == fleet.agents().size();
  std::size_t after_fault = 0;
  for (const IntervalStats& s : report.intervals) {
    const double end_s = s.start_s + options.interval_s;
    if (end_s <= report.last_fault_end_s) continue;
    ++after_fault;
    if (s.agents_converged == s.agents_total) {
      report.convergence_intervals_used = after_fault;
      break;
    }
  }
  report.converged_within_k =
      report.all_converged && report.convergence_intervals_used > 0 &&
      report.convergence_intervals_used <= options.convergence_intervals;
  if (!report.converged_within_k) {
    char msg[128];
    std::snprintf(msg, sizeof(msg),
                  "convergence: %zu/%zu agents on v%llu within %zu "
                  "intervals after faults (limit %zu)",
                  final_converged, fleet.agents().size(),
                  static_cast<unsigned long long>(report.final_version),
                  report.convergence_intervals_used,
                  options.convergence_intervals);
    report.violations.push_back(msg);
  }

  // --- deterministic fingerprint -----------------------------------------
  report.event_log = injector.event_log();
  std::uint64_t h = util::kFnv1aBasis;
  for (const std::string& line : report.event_log) h = util::fnv1a(h, line);
  // Per *instance*, in id order — with one instance per agent this is
  // the original byte stream, so existing golden fingerprints hold.
  for (const auto& a : fleet.agents()) {
    const ctrl::Version v = a.applied_version();
    for (const std::uint64_t id : a.instance_ids()) {
      h = util::fnv1a(h, id);
      h = util::fnv1a(h, v);
      h = util::fnv1a(h, ctrl::encode_routes(a.routes_for(id)));
    }
  }
  h = util::fnv1a(h, report.final_version);
  for (const std::string& v : report.violations) h = util::fnv1a(h, v);
  // Churn timeline last: empty without churn, so churn-free fingerprints
  // are unchanged from the pre-churn harness.
  for (const std::string& c : report.churn_log) h = util::fnv1a(h, c);
  report.fingerprint = h;

  // --- freeze run totals into the registry --------------------------------
  // The KvStore, the TCP transport and report.counters die with this
  // frame (the report is returned by value), so their owners' own
  // bindings go into a scratch registry and its final snapshot is copied
  // over as value-capturing closures: the live names, final values,
  // nothing dangling after return.
  if (reg != nullptr) {
    obs::MetricsRegistry scratch;
    ctrl::register_counters(scratch, report.counters);
    if (options.transport == ChaosTransportMode::kInProcess) {
      // The shared KvStore only carries traffic in in-process mode; in
      // TCP mode the per-daemon stores live (and die) in the children.
      kv.bind_metrics(scratch);
    } else if (tcp != nullptr) {
      tcp->bind_metrics(scratch);
      scratch.expose_counter("kv.version",
                             [v = report.final_version]() { return v; });
    }
    const obs::MetricsSnapshot final_values = scratch.snapshot();
    for (const auto& [name, v] : final_values.counters) {
      reg->expose_counter(name, [v]() { return v; });
    }
    for (const auto& [name, v] : final_values.gauges) {
      reg->expose_gauge(name, [v]() { return v; });
    }
    reg->counter("chaos.violations").inc(report.violations.size());
    reg->counter("chaos.fault_events").inc(report.event_log.size());
    reg->counter("chaos.churn_events").inc(report.churn_log.size());
    reg->gauge("chaos.converged_within_k")
        .set(report.converged_within_k ? 1.0 : 0.0);
    reg->gauge("chaos.final_version")
        .set(static_cast<double>(report.final_version));
  }
  return report;
}

}  // namespace megate::fault

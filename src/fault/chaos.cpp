#include "megate/fault/chaos.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "megate/ctrl/agent.h"
#include "megate/ctrl/controller.h"
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

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  return fnv1a(h, s.data(), s.size());
}

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
double installed_utilization(
    const topo::Graph& graph, const tm::TrafficMatrix& traffic,
    const std::unordered_map<std::uint64_t, const ctrl::EndpointAgent*>&
        agents,
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
      auto it = agents.find(f.src);
      if (it == agents.end()) continue;
      const auto& hops = it->second->hops_for(f.src, pair.dst);
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

/// One spawned megate_shardd child and its announced listen port.
struct Shardd {
  ChildProcess proc;
  std::uint16_t port = 0;
};

/// Spawns a shardd child (`port` 0 = kernel-assigned) and parses its
/// "LISTENING <port>" stdout announcement.
bool spawn_shardd(const std::string& binary, std::uint16_t port,
                  bool recover, std::size_t shard, Shardd* out) {
  std::vector<std::string> args = {
      "--port", std::to_string(port),
      "--name", "shardd" + std::to_string(shard)};
  if (recover) args.push_back("--recover");
  if (!out->proc.spawn(binary, args)) return false;
  std::string line;
  if (!out->proc.read_line(&line, 10000)) return false;
  constexpr const char kTag[] = "LISTENING ";
  if (line.rfind(kTag, 0) != 0) return false;
  const unsigned long parsed = std::stoul(line.substr(sizeof(kTag) - 1));
  if (parsed == 0 || parsed > 0xFFFF) return false;
  out->port = static_cast<std::uint16_t>(parsed);
  return true;
}

/// The injector-facing transport in TCP mode: forwards everything to the
/// real TcpKvTransport, but maps the set_shard_up fault seam onto the
/// configured process-level fault (admin frame, SIGKILL+restart+resync,
/// SIGSTOP/SIGCONT+resync). Recovery is performed synchronously inside
/// the seam call — exactly where the in-process redo-log replay happens
/// in KvStore::set_shard_up(true) — so event ordering, and with it the
/// chaos fingerprint, is identical across transports.
class ShardFaultSeam final : public ctrl::KvTransport {
 public:
  ShardFaultSeam(net::TcpKvTransport* inner, ShardFaultMode mode,
                 std::vector<Shardd>* procs, std::string binary)
      : inner_(inner), mode_(mode), procs_(procs),
        binary_(std::move(binary)) {}

  ctrl::Version version() override { return inner_->version(); }
  ctrl::GetResult get(const std::string& key) override {
    return inner_->get(key);
  }
  ctrl::MultiGetResult multi_get(
      const std::vector<std::string>& keys) override {
    return inner_->multi_get(keys);
  }
  ctrl::Version publish_delta(const ctrl::KvDelta& delta) override {
    return inner_->publish_delta(delta);
  }
  std::size_t num_shards() const override { return inner_->num_shards(); }
  std::size_t shard_index(const std::string& key) const override {
    return inner_->shard_index(key);
  }
  bool shard_up(std::size_t shard) const override {
    return inner_->shard_up(shard);
  }
  const char* name() const noexcept override { return "tcp-chaos"; }

  void set_shard_up(std::size_t shard, bool up) override {
    Shardd& sd = (*procs_)[shard];
    switch (mode_) {
      case ShardFaultMode::kAdmin:
        // Daemon stays up; its single-shard KvStore flips availability
        // and buffers publishes in its redo log like the in-process one.
        inner_->set_shard_up(shard, up);
        return;
      case ShardFaultMode::kKillRestart:
        if (!up) {
          // Failure-detector hint first: requests fail fast instead of
          // eating a wall-clock timeout against a dead peer.
          inner_->set_reachable(shard, false);
          sd.proc.terminate();
        } else {
          Shardd fresh;
          if (!spawn_shardd(binary_, sd.port, /*recover=*/true, shard,
                            &fresh)) {
            throw std::runtime_error("chaos: shardd restart failed");
          }
          sd = std::move(fresh);
          if (!inner_->resync_shard(shard)) {
            throw std::runtime_error("chaos: shard resync failed");
          }
        }
        return;
      case ShardFaultMode::kSigstop:
        if (!up) {
          inner_->set_reachable(shard, false);
          sd.proc.stop();
        } else {
          sd.proc.resume();
          if (!inner_->resync_shard(shard)) {
            throw std::runtime_error("chaos: shard resync failed");
          }
        }
        return;
    }
  }

 private:
  net::TcpKvTransport* inner_;
  ShardFaultMode mode_;
  std::vector<Shardd>* procs_;
  std::string binary_;
};

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
  tm::ChurnOptions churn_opt = options.churn;
  churn_opt.horizon_s =
      static_cast<double>(options.intervals) * options.interval_s;
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
  std::unique_ptr<ShardFaultSeam> seam;
  ctrl::KvTransport* db = &local;
  ctrl::KvTransport* fault_store = &local;
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
    seam = std::make_unique<ShardFaultSeam>(
        tcp.get(), options.shard_fault_mode, &shardds,
        options.shardd_binary);
    db = tcp.get();
    fault_store = seam.get();
  }
  ctrl::Controller controller(db);

  FaultPlanOptions popt = options.plan;
  if (popt.horizon_s <= 0.0) {
    popt.horizon_s =
        static_cast<double>(options.intervals) * options.interval_s;
  }
  const FaultPlan plan = FaultPlan::generate(
      popt, options.kv_shards, graph.num_links() / 2);
  report.last_fault_end_s = plan.last_fault_end_s();

  FaultInjector::Bindings bind;
  bind.store = fault_store;
  bind.graph = &graph;
  bind.counters = &report.counters;
  FaultInjector injector(plan, bind);

  // One agent per distinct source instance, id-ascending for determinism.
  std::vector<std::uint64_t> instance_ids;
  for (const auto& [pair, flows] : traffic.pairs()) {
    for (const tm::EndpointDemand& f : flows) instance_ids.push_back(f.src);
  }
  std::sort(instance_ids.begin(), instance_ids.end());
  instance_ids.erase(
      std::unique(instance_ids.begin(), instance_ids.end()),
      instance_ids.end());

  obs::MetricsRegistry* reg = options.metrics;

  ctrl::AgentOptions aopt;
  aopt.poll_interval_s = options.poll_interval_s;
  aopt.max_pull_retries = options.max_pull_retries;
  aopt.retry_backoff_s = options.retry_backoff_s;
  aopt.batch_pull = options.batch_pull;
  aopt.fault_hooks = &injector;
  aopt.counters = &report.counters;
  aopt.metrics = reg;
  // Hosts serve consecutive chunks of the id-sorted instance list; with
  // instances_per_agent == 1 this degenerates to one agent per instance
  // (the original fleet shape, preserved for the golden fingerprints).
  const std::size_t per_agent =
      std::max<std::size_t>(options.instances_per_agent, 1);
  std::vector<ctrl::EndpointAgent> agents;
  agents.reserve((instance_ids.size() + per_agent - 1) / per_agent);
  std::unordered_map<std::uint64_t, const ctrl::EndpointAgent*> by_id;
  for (std::size_t i = 0; i < instance_ids.size(); i += per_agent) {
    std::vector<std::uint64_t> ids(
        instance_ids.begin() + static_cast<std::ptrdiff_t>(i),
        instance_ids.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(i + per_agent,
                                            instance_ids.size())));
    agents.emplace_back(std::move(ids), db, nullptr, aopt);
  }
  for (const auto& a : agents) {
    for (std::uint64_t id : a.instance_ids()) by_id[id] = &a;
  }

  te::MegaTeOptions sopt;
  sopt.metrics = reg;
  sopt.site_lp = options.site_lp;
  te::MegaTeSolver solver(sopt);
  double last_satisfied = 0.0;
  double last_solution_util = 0.0;

  // Online patching between full solves (ISSUE 9). The allocator plans
  // on the derated solver graph, so patched routes keep the mixed-state
  // safety argument.
  const bool churn_enabled = !churn_stream.empty();
  te::OnlineOptions oopt;
  oopt.resolve_drift_fraction = options.online_resolve_drift;
  oopt.metrics = options.metrics;
  te::OnlineAllocator allocator(oopt);
  // Policing caps for the installed-routes view: under churn, carried
  // traffic is min(demand, reservation). Rebuilt at every publish.
  PoliceMap police;
  // Problem/tunnels live at loop scope so patched publishes between
  // solves reuse the last solve's topology view.
  topo::TunnelSet repaired;
  te::TeProblem problem;
  problem.graph = &solver_graph;
  problem.tunnels = &repaired;
  problem.traffic = &traffic;

  // Publishes `sol` and adds what the delta wrote to the run's counters.
  auto publish = [&](const te::TeSolution& sol) {
    controller.publish_solution(problem, sol);
    ++report.counters.publishes;
    report.counters.publish_upserts += controller.last_publish_upserts();
    report.counters.publish_erases += controller.last_publish_erases();
    report.counters.publish_delta_bytes += controller.last_publish_bytes();
  };

  auto rebuild_police = [&](const te::TeSolution& sol) {
    police.clear();
    for (const auto& [pair, flows] : traffic.pairs()) {
      auto it = sol.pairs.find(pair);
      std::vector<double>& caps = police[pair];
      caps.assign(flows.size(), 0.0);
      if (it == sol.pairs.end()) continue;
      const auto& ft = it->second.flow_tunnel;
      for (std::size_t i = 0; i < flows.size() && i < ft.size(); ++i) {
        if (ft[i] >= 0) caps[i] = flows[i].demand_gbps;
      }
    }
  };

  auto solve_and_publish = [&](double now_s, IntervalStats& stats) {
    // Mirror the real graph's link states onto the derated solver view.
    for (topo::EdgeId e = 0; e < graph.num_links(); ++e) {
      solver_graph.set_link_state(e, graph.link(e).up);
    }
    // Rebuild dead tunnels against the current topology; surviving tunnel
    // identities stay stable so unaffected routes do not churn.
    repaired = pristine;
    topo::repair_tunnels(solver_graph, repaired);
    const te::TeSolution sol = solver.solve(problem);
    te::CheckOptions copt;
    copt.capacity_tolerance = options.capacity_tolerance;
    copt.require_flow_assignment = true;
    const te::CheckResult check = te::check_solution(problem, sol, copt);
    for (const std::string& v : check.violations) {
      report.violations.push_back(time_tag(now_s) + "check_solution: " + v);
    }
    publish(sol);
    ++stats.resolves;
    last_satisfied = sol.satisfied_ratio();
    last_solution_util = check.max_link_utilization;
    if (churn_enabled) {
      if (options.online_patch) allocator.rebase(problem, sol);
      rebuild_police(sol);
    }
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
      publish(allocator.snapshot());
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
    stats.agents_total = agents.size();

    injector.advance_to(t0);
    (void)injector.take_topology_changed();  // this solve sees the change
    if (churn_enabled) {
      // Events due at the boundary land before the solve: the boundary
      // solve measures the churned truth (the believed/actual gap opens
      // with the first mid-interval event instead).
      drain_churn(t0, stats);
    }
    solve_and_publish(t0, stats);

    double routed_sum = 0.0;
    std::size_t ticks = 0;
    for (double t = t0 + kTickS;
         t <= t0 + options.interval_s + 1e-9; t += kTickS) {
      injector.advance_to(t);
      if (injector.take_topology_changed()) {
        solve_and_publish(t, stats);
      }
      if (churn_enabled) drain_churn(t, stats);
      for (auto& a : agents) a.tick(t);

      double routed = 0.0;
      const double util = installed_utilization(
          graph, traffic, by_id, churn_enabled ? &police : nullptr,
          &routed);
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
    stats.satisfied_ratio = last_satisfied;
    stats.max_link_utilization = last_solution_util;
    for (const auto& a : agents) {
      if (a.applied_version() == stats.version) ++stats.agents_converged;
    }
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
  report.all_converged = std::all_of(
      agents.begin(), agents.end(), [&](const ctrl::EndpointAgent& a) {
        return a.applied_version() == report.final_version;
      });
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
                  static_cast<std::size_t>(std::count_if(
                      agents.begin(), agents.end(),
                      [&](const ctrl::EndpointAgent& a) {
                        return a.applied_version() == report.final_version;
                      })),
                  agents.size(),
                  static_cast<unsigned long long>(report.final_version),
                  report.convergence_intervals_used,
                  options.convergence_intervals);
    report.violations.push_back(msg);
  }

  // --- deterministic fingerprint -----------------------------------------
  report.event_log = injector.event_log();
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::string& line : report.event_log) h = fnv1a(h, line);
  // Per *instance*, in id order — with one instance per agent this is
  // the original byte stream, so existing golden fingerprints hold.
  for (const auto& a : agents) {
    const ctrl::Version v = a.applied_version();
    for (const std::uint64_t id : a.instance_ids()) {
      h = fnv1a(h, &id, sizeof(id));
      h = fnv1a(h, &v, sizeof(v));
      h = fnv1a(h, ctrl::encode_routes(a.routes_for(id)));
    }
  }
  h = fnv1a(h, &report.final_version, sizeof(report.final_version));
  for (const std::string& v : report.violations) h = fnv1a(h, v);
  // Churn timeline last: empty without churn, so churn-free fingerprints
  // are unchanged from the pre-churn harness.
  for (const std::string& c : report.churn_log) h = fnv1a(h, c);
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

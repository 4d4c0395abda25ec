// megate_cli — command-line front end to the MegaTE library.
//
//   megate_cli topo  --kind b4|deltacom|cogentco|twan [--seed N]
//                    [--sites N] --out FILE         generate a topology
//   megate_cli info  --topo FILE [--gml]            inspect a topology
//   megate_cli solve --topo FILE | --kind KIND      run a TE solver
//                    [--gml] [--endpoints N] [--load F]
//                    [--solver megate|lpall|ncflow|teal] [--seed N]
//                    [--max-sr-hops N] [--tunnel-selection ksp|centrality]
//                    [--learned]  learned fast path with exact-solve
//                    fallback
//   megate_cli sync  --endpoints N                  Fig. 14 resource rows
//   megate_cli chaos [--seed N] [--intervals N] [--sites N] [--links N]
//                    [--endpoints N] [--shards N] [--quiet-tail S]
//                    [--shard-crashes N] [--link-failures N]
//                    [--pull-drops N] [--stale-windows N] [--k N]
//                    [--batch N] [--log]  seeded fault-injection chaos run
//                    (--batch N: N instances per host agent, pulled as one
//                    consistent multi_get batch)
//                    [--churn-scale N] [--churn-flash N]
//                    [--churn-diurnal N] [--churn-arrivals N]
//                    [--churn-departures N] [--churn-seed N]
//                    [--online] [--online-drift F]  mid-interval demand
//                    churn; --online patches the standing solution per
//                    event instead of waiting for the interval boundary
//
// Exit code 0 on success, 1 on a constraint violation or solver refusal,
// 2 on usage errors.

#include <algorithm>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "megate/ctrl/sync_model.h"
#include "megate/fault/chaos.h"
#include "megate/obs/json.h"
#include "megate/obs/metrics.h"
#include "megate/te/baselines.h"
#include "megate/te/checker.h"
#include "megate/te/megate_solver.h"
#include "megate/tm/endpoints.h"
#include "megate/tm/traffic.h"
#include "megate/topo/format.h"
#include "megate/topo/generators.h"
#include "megate/topo/gml.h"
#include "megate/topo/tunnels.h"
#include "megate/util/table.h"

namespace {

using namespace megate;

int usage(const char* msg = nullptr) {
  if (msg != nullptr) std::cerr << "error: " << msg << "\n\n";
  std::cerr <<
      "usage:\n"
      "  megate_cli topo  --kind KIND [--seed N] [--sites N] --out FILE\n"
      "  megate_cli info  --topo FILE [--gml]\n"
      "  megate_cli solve (--topo FILE [--gml] | --kind KIND)\n"
      "                   [--endpoints N] [--load F] [--solver NAME]\n"
      "                   [--seed N] [--max-sr-hops N]\n"
      "                   [--tunnel-selection ksp|centrality]\n"
      "                   [--learned]\n"
      "                   [--metrics-json FILE]\n"
      "  megate_cli sync  --endpoints N [--metrics-json FILE]\n"
      "  megate_cli chaos [--seed N] [--intervals N] [--sites N]\n"
      "                   [--links N] [--endpoints N] [--shards N]\n"
      "                   [--quiet-tail S] [--shard-crashes N]\n"
      "                   [--link-failures N] [--pull-drops N]\n"
      "                   [--stale-windows N] [--k N] [--batch N]\n"
      "                   [--churn-scale N] [--churn-flash N]\n"
      "                   [--churn-diurnal N] [--churn-arrivals N]\n"
      "                   [--churn-departures N] [--churn-seed N]\n"
      "                   [--online] [--online-drift F]\n"
      "                   [--log] [--metrics-json FILE]\n"
      "KIND: b4 | deltacom | cogentco | twan; NAME: megate | lpall |\n"
      "ncflow | teal\n"
      "--metrics-json FILE writes the run's metrics as a validated\n"
      "megate.metrics/1 JSON document (\"-\" = stdout).\n";
  return 2;
}

/// "--key value" flags into a map; returns false on a stray token.
bool parse_flags(int argc, char** argv, int start,
                 std::map<std::string, std::string>& flags) {
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    if (i + 1 >= argc) return false;
    flags[arg.substr(2)] = argv[++i];
  }
  return true;
}

std::optional<topo::TopologyKind> kind_of(const std::string& name) {
  if (name == "b4") return topo::TopologyKind::kB4;
  if (name == "deltacom") return topo::TopologyKind::kDeltacom;
  if (name == "cogentco") return topo::TopologyKind::kCogentco;
  if (name == "twan") return topo::TopologyKind::kTwan;
  return std::nullopt;
}

std::uint64_t flag_u64(const std::map<std::string, std::string>& flags,
                       const std::string& key, std::uint64_t fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : std::stoull(it->second);
}

double flag_double(const std::map<std::string, std::string>& flags,
                   const std::string& key, double fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : std::stod(it->second);
}

/// Writes `registry` as schema-validated metrics JSON when the command
/// was given --metrics-json. Returns false only on a write failure.
bool export_metrics(const std::map<std::string, std::string>& flags,
                    const obs::MetricsRegistry& registry,
                    const std::string& source) {
  auto it = flags.find("metrics-json");
  if (it == flags.end()) return true;
  if (!obs::write_metrics_json(registry, source, it->second)) {
    std::cerr << "error: failed to write metrics JSON to " << it->second
              << "\n";
    return false;
  }
  return true;
}

/// Loads via --topo (text or --gml) or generates via --kind.
std::optional<topo::Graph> load_graph(
    const std::map<std::string, std::string>& flags) {
  if (auto it = flags.find("topo"); it != flags.end()) {
    if (flags.contains("gml")) return topo::load_gml(it->second);
    return topo::load_topology(it->second);
  }
  if (auto it = flags.find("kind"); it != flags.end()) {
    auto kind = kind_of(it->second);
    if (!kind) return std::nullopt;
    topo::GeneratorOptions gopt;
    gopt.seed = flag_u64(flags, "seed", 42);
    gopt.twan_sites =
        static_cast<std::uint32_t>(flag_u64(flags, "sites", 100));
    return topo::make_topology(*kind, gopt);
  }
  return std::nullopt;
}

int cmd_topo(const std::map<std::string, std::string>& flags) {
  auto it = flags.find("out");
  if (it == flags.end()) return usage("topo requires --out");
  auto graph = load_graph(flags);
  if (!graph) return usage("topo requires a valid --kind");
  topo::save_topology(it->second, *graph);
  std::cout << "wrote " << graph->num_nodes() << " sites / "
            << graph->num_links() / 2 << " duplex links to " << it->second
            << "\n";
  return 0;
}

int cmd_info(const std::map<std::string, std::string>& flags) {
  auto graph = load_graph(flags);
  if (!graph) return usage("info requires --topo or --kind");
  util::Table t("topology");
  t.header({"metric", "value"});
  t.add_row({"sites", util::Table::num(graph->num_nodes())});
  t.add_row({"duplex links", util::Table::num(graph->num_links() / 2)});
  t.add_row({"connected", graph->is_connected() ? "yes" : "no"});
  t.add_row({"total capacity (Gbps)",
             util::Table::num(tm::total_link_capacity_gbps(*graph), 0)});
  double lat = 0;
  for (const topo::Link& l : graph->links()) lat += l.latency_ms;
  t.add_row({"mean link latency (ms)",
             util::Table::num(lat / graph->num_links(), 2)});
  t.print(std::cout);
  return 0;
}

int cmd_solve(const std::map<std::string, std::string>& flags) {
  auto graph = load_graph(flags);
  if (!graph) return usage("solve requires --topo or --kind");
  const std::uint64_t seed = flag_u64(flags, "seed", 42);
  const std::uint64_t endpoints = flag_u64(flags, "endpoints", 1000);
  const double load = flag_double(flags, "load", 0.5);
  const std::string solver_name =
      flags.contains("solver") ? flags.at("solver") : "megate";

  obs::MetricsRegistry registry;
  // Hop budget + selection backend are planning knobs: the tunnel set
  // carries the budget, so every solver sees only tunnels that fit it.
  topo::TunnelOptions topt;
  topt.max_sr_hops =
      static_cast<std::uint32_t>(flag_u64(flags, "max-sr-hops", 0));
  topt.metrics = &registry;
  const std::string selection =
      flags.contains("tunnel-selection") ? flags.at("tunnel-selection")
                                         : "ksp";
  if (selection == "centrality") {
    topt.selection = topo::TunnelSelection::kCentrality;
  } else if (selection != "ksp") {
    return usage("unknown --tunnel-selection (ksp|centrality)");
  }
  topo::TunnelSet tunnels = topo::build_tunnels(*graph, topt);
  auto layout =
      tm::generate_endpoints_with_total(*graph, endpoints, 0.8, seed);
  // Load is relative to routable capacity (capacity / mean hops).
  double hops = 0;
  std::size_t pairs = 0;
  for (const auto& [pair, ts] : tunnels.all()) {
    if (!ts.empty()) {
      hops += static_cast<double>(ts.front().hops());
      ++pairs;
    }
  }
  const double mean_hops = pairs ? hops / static_cast<double>(pairs) : 1.0;
  tm::TrafficOptions tmo;
  tmo.target_total_gbps =
      tm::total_link_capacity_gbps(*graph) * load / mean_hops;
  tm::TrafficMatrix traffic =
      tm::generate_traffic(*graph, layout, tmo, seed + 1);

  // --learned: route the solve through the learned fast path (predict ->
  // repair -> audit with exact fallback). The first kMinObservations
  // learned solves fall back to the exact solve and train on it, so the
  // quality gate has an estimate to compare against; the gate decision of
  // the solve after them is reported in the table.
  const bool learned = flags.contains("learned");
  te::MegaTeSolver* megate_solver = nullptr;
  std::unique_ptr<te::Solver> solver;
  if (solver_name == "megate") {
    te::MegaTeOptions mopt;
    mopt.metrics = &registry;
    auto ms = std::make_unique<te::MegaTeSolver>(mopt);
    megate_solver = ms.get();
    solver = std::move(ms);
  } else if (solver_name == "lpall") {
    solver = std::make_unique<te::LpAllSolver>();
  } else if (solver_name == "ncflow") {
    solver = std::make_unique<te::NcFlowSolver>();
  } else if (solver_name == "teal") {
    solver = std::make_unique<te::TealSolver>();
  } else {
    return usage("unknown --solver");
  }

  te::TeProblem problem;
  problem.graph = &*graph;
  problem.tunnels = &tunnels;
  problem.traffic = &traffic;
  if (learned && megate_solver == nullptr) {
    return usage("--learned requires --solver megate");
  }
  te::TeSolution sol;
  te::LearnedStats learned_stats;
  if (learned) {
    te::SolveContext sctx;
    sctx.learned = true;
    for (std::size_t i = 0; i < te::LearnedAllocator::kMinObservations; ++i) {
      megate_solver->solve(problem, sctx);
    }
    te::SolveReport report = megate_solver->solve(problem, sctx);
    learned_stats = report.learned;
    sol = std::move(report.solution);
  } else {
    sol = solver->solve(problem);
  }
  if (!sol.solved) {
    std::cerr << sol.solver_name
              << ": instance too large for this solver (the paper's OOM "
                 "wall); try --solver megate\n";
    return 1;
  }
  auto check = te::check_solution(problem, sol);

  util::Table t("TE solve");
  t.header({"metric", "value"});
  t.add_row({"solver", sol.solver_name});
  t.add_row({"endpoints", util::Table::with_commas(layout.total_endpoints())});
  t.add_row({"flows", util::Table::with_commas(traffic.num_flows())});
  t.add_row({"total demand (Gbps)",
             util::Table::num(sol.total_demand_gbps, 1)});
  t.add_row({"satisfied",
             util::Table::num(100.0 * sol.satisfied_ratio(), 1) + "%"});
  t.add_row({"solve time (s)", util::Table::num(sol.solve_time_s, 3)});
  t.add_row({"max link utilization",
             util::Table::num(100.0 * check.max_link_utilization, 1) + "%"});
  t.add_row({"constraints", check.ok ? "satisfied" : "VIOLATED"});
  if (learned) {
    t.add_row({"learned path", learned_stats.accepted
                                   ? "accepted"
                                   : "fallback (" +
                                         learned_stats.fallback_reason +
                                         ")"});
    t.add_row({"learned solve (s)",
               util::Table::num(learned_stats.learned_seconds, 4)});
  }
  t.print(std::cout);
  if (!check.ok) {
    for (const auto& v : check.violations) std::cerr << "  " << v << "\n";
  }
  // Headline numbers for every solver (the megate solver additionally
  // filled in its stage spans/histograms during the solve).
  registry.gauge("cli.solve.time_s").set(sol.solve_time_s);
  registry.gauge("cli.solve.satisfied_ratio").set(sol.satisfied_ratio());
  registry.gauge("cli.solve.max_link_utilization")
      .set(check.max_link_utilization);
  registry.gauge("cli.solve.flows")
      .set(static_cast<double>(traffic.num_flows()));
  registry.gauge("cli.solve.endpoints")
      .set(static_cast<double>(layout.total_endpoints()));
  if (learned) {
    registry.gauge("cli.solve.learned_accepted")
        .set(learned_stats.accepted ? 1.0 : 0.0);
    registry.gauge("cli.solve.learned_seconds")
        .set(learned_stats.learned_seconds);
  }
  if (!export_metrics(flags, registry, "megate_cli solve")) return 1;
  return check.ok ? 0 : 1;
}

int cmd_sync(const std::map<std::string, std::string>& flags) {
  const std::uint64_t endpoints = flag_u64(flags, "endpoints", 1000000);
  const auto td = ctrl::top_down_resources(endpoints);
  const auto bu = ctrl::bottom_up_resources(endpoints);
  util::Table t("TE-config sync resources @ " +
                util::Table::with_commas(endpoints) + " endpoints");
  t.header({"approach", "CPU cores", "memory (GB)", "DB shards"});
  t.add_row({"top-down (persistent connections)",
             util::Table::num(td.cpu_cores, 0),
             util::Table::num(td.memory_gb, 1), "-"});
  t.add_row({"bottom-up (MegaTE pull)", util::Table::num(bu.cpu_cores, 0),
             util::Table::num(bu.memory_gb, 1),
             util::Table::num(bu.db_shards)});
  t.print(std::cout);
  obs::MetricsRegistry registry;
  registry.gauge("cli.sync.endpoints").set(static_cast<double>(endpoints));
  registry.gauge("cli.sync.top_down.cpu_cores").set(td.cpu_cores);
  registry.gauge("cli.sync.top_down.memory_gb").set(td.memory_gb);
  registry.gauge("cli.sync.bottom_up.cpu_cores").set(bu.cpu_cores);
  registry.gauge("cli.sync.bottom_up.memory_gb").set(bu.memory_gb);
  registry.gauge("cli.sync.bottom_up.db_shards")
      .set(static_cast<double>(bu.db_shards));
  if (!export_metrics(flags, registry, "megate_cli sync")) return 1;
  return 0;
}

int cmd_chaos(const std::map<std::string, std::string>& flags) {
  fault::ChaosOptions opt;
  opt.plan.seed = flag_u64(flags, "seed", 1);
  opt.intervals = flag_u64(flags, "intervals", 20);
  opt.sites = static_cast<std::uint32_t>(flag_u64(flags, "sites", 10));
  opt.duplex_links =
      static_cast<std::uint32_t>(flag_u64(flags, "links", 16));
  opt.endpoints_per_site =
      static_cast<std::uint32_t>(flag_u64(flags, "endpoints", 4));
  opt.kv_shards = flag_u64(flags, "shards", 4);
  opt.plan.quiet_tail_s = flag_double(flags, "quiet-tail", 120.0);
  opt.plan.shard_crashes = flag_u64(flags, "shard-crashes", 2);
  opt.plan.link_failures = flag_u64(flags, "link-failures", 2);
  opt.plan.pull_drop_windows = flag_u64(flags, "pull-drops", 2);
  opt.plan.stale_windows = flag_u64(flags, "stale-windows", 2);
  opt.convergence_intervals = flag_u64(flags, "k", 3);
  // --batch N: host agents serve N instances each and pull their route
  // entries as one consistent KvStore::multi_get.
  const std::uint64_t batch = flag_u64(flags, "batch", 1);
  if (batch > 1) {
    opt.instances_per_agent = batch;
    opt.batch_pull = true;
  }
  // --churn-*: mid-interval demand churn; --online patches the standing
  // solution per event with the online allocator.
  opt.churn.seed = flag_u64(flags, "churn-seed", opt.plan.seed);
  opt.churn.flow_scale_events = flag_u64(flags, "churn-scale", 0);
  opt.churn.flash_crowds = flag_u64(flags, "churn-flash", 0);
  opt.churn.diurnal_steps = flag_u64(flags, "churn-diurnal", 0);
  opt.churn.endpoint_arrivals = flag_u64(flags, "churn-arrivals", 0);
  opt.churn.endpoint_departures = flag_u64(flags, "churn-departures", 0);
  opt.online_patch = flags.contains("online");
  opt.online_resolve_drift = flag_double(flags, "online-drift", 0.25);

  obs::MetricsRegistry registry;
  opt.metrics = &registry;
  const fault::ChaosReport report = fault::run_chaos(opt);

  if (flags.contains("log")) {
    for (const auto& line : report.event_log) std::cout << line << "\n";
    for (const auto& line : report.churn_log) std::cout << line << "\n";
    std::cout << "\n";
  }

  util::Table t("chaos run (plan seed " + std::to_string(opt.plan.seed) +
                ", " + std::to_string(opt.intervals) + " intervals)");
  t.header({"metric", "value"});
  t.add_row({"fault events", util::Table::num(report.event_log.size())});
  t.add_row({"final TE-db version", util::Table::num(report.final_version)});
  t.add_row({"publishes", util::Table::num(report.counters.publishes)});
  t.add_row({"agent polls", util::Table::num(report.counters.polls)});
  t.add_row({"pull drops", util::Table::num(report.counters.pull_drops)});
  t.add_row({"shard-unavailable reads",
             util::Table::num(report.counters.shard_unavailable)});
  t.add_row({"stale version reads",
             util::Table::num(report.counters.stale_version_reads)});
  t.add_row({"last-good fallbacks",
             util::Table::num(report.counters.fallbacks_last_good)});
  double min_routed = 1.0;
  for (const auto& s : report.intervals) {
    min_routed = std::min(min_routed, s.routed_demand_ratio);
  }
  t.add_row({"worst interval availability",
             util::Table::num(100.0 * min_routed, 1) + "%"});
  if (!report.churn_log.empty()) {
    std::size_t patches = 0;
    for (const auto& s : report.intervals) patches += s.online_patches;
    t.add_row({"churn events", util::Table::num(report.churn_log.size())});
    t.add_row({"online patches", util::Table::num(patches)});
  }
  t.add_row({"converged within K",
             report.converged_within_k ? "yes" : "NO"});
  t.add_row({"violations", util::Table::num(report.violations.size())});
  t.add_row({"fingerprint",
             std::to_string(report.fingerprint)});
  t.print(std::cout);
  for (const auto& v : report.violations) std::cerr << "  " << v << "\n";
  if (!export_metrics(flags, registry, "megate_cli chaos")) return 1;
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> flags;
  // `--gml` / `--log` / `--online` are boolean flags: accept them
  // without a value.
  std::vector<char*> args;
  for (int i = 2; i < argc; ++i) {
    args.push_back(argv[i]);
    if (std::strcmp(argv[i], "--gml") == 0 ||
        std::strcmp(argv[i], "--log") == 0 ||
        std::strcmp(argv[i], "--online") == 0 ||
        std::strcmp(argv[i], "--learned") == 0) {
      static char yes[] = "1";
      args.push_back(yes);
    }
  }
  if (!parse_flags(static_cast<int>(args.size()), args.data(), 0, flags)) {
    return usage("malformed flags");
  }
  try {
    if (cmd == "topo") return cmd_topo(flags);
    if (cmd == "info") return cmd_info(flags);
    if (cmd == "solve") return cmd_solve(flags);
    if (cmd == "sync") return cmd_sync(flags);
    if (cmd == "chaos") return cmd_chaos(flags);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage("unknown command");
}

#pragma once
// Shared machinery for the figure/table reproduction benches.
//
// Every bench prints (a) the measured series on this machine and (b) the
// paper's reference values where the paper states them, so EXPERIMENTS.md
// can record paper-vs-measured side by side. Absolute runtimes will not
// match the authors' 24-thread Xeon + Gurobi + A30 testbed; the *shape*
// (ordering, crossovers, scaling walls) is the reproduction target.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "megate/obs/json.h"
#include "megate/obs/metrics.h"
#include "megate/te/types.h"
#include "megate/tm/endpoints.h"
#include "megate/tm/traffic.h"
#include "megate/topo/generators.h"
#include "megate/topo/tunnels.h"
#include "megate/util/stopwatch.h"
#include "megate/util/table.h"

// Set per target by bench/CMakeLists.txt at configure time.
#ifndef MEGATE_GIT_REV
#define MEGATE_GIT_REV "none"
#endif
#ifndef MEGATE_BUILD_TYPE
#define MEGATE_BUILD_TYPE "unknown"
#endif

namespace megate::bench {

/// A fully-materialized TE instance.
struct Instance {
  topo::Graph graph;
  topo::TunnelSet tunnels;
  tm::EndpointLayout layout{std::vector<std::uint32_t>{}};
  tm::TrafficMatrix traffic;

  te::TeProblem problem() const {
    te::TeProblem p;
    p.graph = &graph;
    p.tunnels = &tunnels;
    p.traffic = &traffic;
    return p;
  }
};

struct InstanceOptions {
  std::uint64_t seed = 42;
  /// Offered load relative to the topology's *routable* capacity
  /// (total link capacity divided by the mean shortest-tunnel hop count —
  /// a flow crossing h links consumes h units of capacity). load=1.0
  /// offers roughly as much demand as the WAN can physically carry.
  double load = 0.6;
  double flows_per_endpoint = 1.0;
  std::uint32_t tunnels_per_pair = 3;
};

/// The tunnel build make_instance runs; a repair of the instance's
/// tunnels must use the same options.
inline topo::TunnelOptions tunnel_options(const InstanceOptions& opt) {
  topo::TunnelOptions topt;
  topt.tunnels_per_pair = opt.tunnels_per_pair;
  return topt;
}

/// Mean hop count of the best tunnel across all site pairs.
inline double mean_shortest_hops(const topo::TunnelSet& tunnels) {
  double hops = 0.0;
  std::size_t n = 0;
  for (const auto& [pair, ts] : tunnels.all()) {
    if (ts.empty()) continue;
    hops += static_cast<double>(ts.front().hops());
    ++n;
  }
  return n > 0 ? hops / static_cast<double>(n) : 1.0;
}

/// Plan/encap audit computed from the plan itself: assigned flows of
/// `sol` on tunnels with more than `max_sr_hops` links (0 = unlimited).
/// A TunnelSet built under the budget refuses such tunnels, so this
/// reads 0 unless the set was built under a looser budget.
inline std::size_t flows_over_hop_budget(const te::TeProblem& problem,
                                         const te::TeSolution& sol,
                                         std::uint32_t max_sr_hops) {
  if (max_sr_hops == 0) return 0;
  std::size_t over = 0;
  for (const auto& [pair, alloc] : sol.pairs) {
    const auto& ts = problem.tunnels->tunnels(pair.src, pair.dst);
    for (const std::int32_t t : alloc.flow_tunnel) {
      if (t >= 0 && ts[static_cast<std::size_t>(t)].hops() > max_sr_hops) {
        ++over;
      }
    }
  }
  return over;
}

/// Builds a paper topology with ~`endpoints` endpoints and its traffic.
inline std::unique_ptr<Instance> make_instance(
    topo::TopologyKind kind, std::uint64_t endpoints,
    const InstanceOptions& opt = {}) {
  auto inst = std::make_unique<Instance>();
  topo::GeneratorOptions gopt;
  gopt.seed = opt.seed;
  inst->graph = topo::make_topology(kind, gopt);
  inst->tunnels = topo::build_tunnels(inst->graph, tunnel_options(opt));
  inst->layout = tm::generate_endpoints_with_total(inst->graph, endpoints,
                                                   /*shape=*/0.8, opt.seed);
  tm::TrafficOptions tmo;
  tmo.flows_per_endpoint = opt.flows_per_endpoint;
  tmo.target_total_gbps = tm::total_link_capacity_gbps(inst->graph) *
                          opt.load / mean_shortest_hops(inst->tunnels);
  inst->traffic =
      tm::generate_traffic(inst->graph, inst->layout, tmo, opt.seed + 1);
  return inst;
}

/// Reuses a built topology+tunnels, regenerating only endpoints/traffic —
/// the Fig. 9/10 endpoint sweeps vary scale on a fixed topology.
inline void rescale_instance(Instance& inst, std::uint64_t endpoints,
                             const InstanceOptions& opt) {
  inst.layout = tm::generate_endpoints_with_total(inst.graph, endpoints,
                                                  0.8, opt.seed);
  tm::TrafficOptions tmo;
  tmo.flows_per_endpoint = opt.flows_per_endpoint;
  tmo.target_total_gbps = tm::total_link_capacity_gbps(inst.graph) *
                          opt.load / mean_shortest_hops(inst.tunnels);
  inst.traffic =
      tm::generate_traffic(inst.graph, inst.layout, tmo, opt.seed + 1);
}

/// True when the operator asked for the full (slow) paper-scale sweep via
/// MEGATE_BENCH_FULL=1; the default keeps each bench to a few minutes.
inline bool full_scale() {
  const char* v = std::getenv("MEGATE_BENCH_FULL");
  return v != nullptr && v[0] == '1';
}

inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
  std::cout << "\n" << std::string(72, '=') << "\n"
            << title << "\n"
            << "Paper reference: " << paper_ref << "\n"
            << std::string(72, '=') << "\n";
}

/// Per-bench metrics export: every bench target owns one BenchReport and
/// writes BENCH_<name>.json in the megate.metrics/1 schema (obs/json.h) —
/// the same document megate_cli --metrics-json emits, so one validator
/// (tools/check_metrics_json) covers every producer in the repo.
///
/// Usage:
///   megate::bench::BenchReport report("fig09_runtime");
///   report.metrics().gauge("bench.b4.solve_seconds").set(dt);  // series
///   report.extra().set("endpoints", obs::Json::array());      // free-form
///   // destructor stamps bench.wall_seconds and writes the file
///
/// Every document also carries extra.context: the machine's hardware
/// thread count (nproc), the build type and the git revision captured when
/// the build was configured, so a number in it says what produced it.
///
/// Solver-level detail comes for free by pointing MegaTeOptions::metrics
/// at report.metrics(). The write is validated against the schema before
/// touching disk; a failure prints to stderr (benches stay best-effort —
/// a full disk must not flip a perf experiment's exit code).
class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)), extra_(obs::Json::object()) {}

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  ~BenchReport() { write(); }

  obs::MetricsRegistry& metrics() noexcept { return registry_; }
  /// Free-form per-bench payload (series arrays, config echoes, ...);
  /// lands in the document's "extra" member.
  obs::Json& extra() noexcept { return extra_; }

  /// Stamps the total wall time and writes BENCH_<name>.json (validated).
  /// Idempotent: the first call wins; the destructor is then a no-op.
  bool write() {
    if (written_) return true;
    written_ = true;
    registry_.gauge("bench.wall_seconds").set(clock_.elapsed_seconds());
    obs::Json context = obs::Json::object();
    context.set("nproc", static_cast<std::uint64_t>(
                             std::thread::hardware_concurrency()));
    context.set("build_type", MEGATE_BUILD_TYPE);
    context.set("git_rev", MEGATE_GIT_REV);
    extra_.set("context", std::move(context));
    const std::string path = "BENCH_" + name_ + ".json";
    if (!obs::write_metrics_json(registry_, "bench/" + name_, path,
                                 extra_)) {
      std::cerr << "warning: failed to write " << path << "\n";
      return false;
    }
    std::cout << "metrics: " << path << "\n";
    return true;
  }

 private:
  std::string name_;
  obs::MetricsRegistry registry_;
  obs::Json extra_;
  util::Stopwatch clock_;
  bool written_ = false;
};

}  // namespace megate::bench

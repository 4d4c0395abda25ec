// QoS scheduling walkthrough (§4.1): three traffic classes share one WAN.
// MegaTE allocates class 1 (latency-critical) first on uncontended
// capacity, then class 2, then bulk class 3 on the residual — and every
// flow is pinned to exactly one tunnel. Compare against a QoS-blind run
// and against conventional hash-based TE to see why sequencing matters.

#include <array>
#include <iostream>

#include "megate/te/baselines.h"
#include "megate/te/checker.h"
#include "megate/te/megate_solver.h"
#include "megate/tm/endpoints.h"
#include "megate/topo/generators.h"
#include "megate/util/table.h"

namespace {

using namespace megate;

/// Satisfied share (%) and demand-weighted mean propagation latency (ms)
/// of each class's assigned flows, index 0..2 for classes 1..3.
struct ClassStats {
  std::array<double, 3> satisfied_pct{};
  std::array<double, 3> latency_ms{};
};

ClassStats per_class(const te::TeProblem& problem,
                     const te::TeSolution& sol) {
  ClassStats cs;
  const std::array<double, 3> satisfied = te::satisfied_by_class(problem, sol);
  for (int q = 1; q <= 3; ++q) {
    const double total = problem.traffic->total_demand_gbps(
        static_cast<tm::QosClass>(q));
    cs.satisfied_pct[q - 1] =
        total > 0 ? 100.0 * satisfied[q - 1] / total : 0.0;
    cs.latency_ms[q - 1] = te::mean_latency_ms(problem, sol, q);
  }
  return cs;
}

}  // namespace

int main() {
  topo::GeneratorOptions gopt;
  gopt.seed = 11;
  topo::Graph wan = topo::make_topology(topo::TopologyKind::kB4, gopt);
  topo::TunnelSet tunnels = topo::build_tunnels(wan);
  auto layout = tm::generate_endpoints_with_total(wan, 3000, 0.8, 12);
  tm::TrafficOptions tmo;
  tmo.flows_per_endpoint = 2.0;
  // Run the WAN hot so the classes actually compete for capacity
  // (mean tunnel length ~2.5 hops makes this ~80%+ of routable capacity).
  tmo.target_total_gbps = tm::total_link_capacity_gbps(wan) * 0.35;
  tm::TrafficMatrix traffic = tm::generate_traffic(wan, layout, tmo, 13);

  te::TeProblem problem;
  problem.graph = &wan;
  problem.tunnels = &tunnels;
  problem.traffic = &traffic;

  // 1. MegaTE with QoS sequencing (the paper's design).
  te::MegaTeSolver megate;
  te::TeSolution seq = megate.solve(problem, {}).solution;

  // 2. Ablation: same solver, one joint QoS-blind pass.
  te::MegaTeOptions flat_opt;
  flat_opt.qos_sequencing = false;
  te::MegaTeSolver flat(flat_opt);
  te::TeSolution joint = flat.solve(problem, {}).solution;

  // 3. Conventional TE: aggregated LP split + five-tuple hashing.
  te::LpAllSolver lp_all;
  te::TeSolution conventional = lp_all.solve(problem);
  te::assign_flows_by_hash(problem, conventional, 99);

  util::Table t("per-class outcome (satisfied % / mean latency ms)");
  t.header({"scheme", "QoS-1", "QoS-2", "QoS-3"});
  auto row = [&](const std::string& name, const te::TeSolution& sol) {
    ClassStats cs = per_class(problem, sol);
    auto cell = [&](int q) {
      return util::Table::num(cs.satisfied_pct[q - 1], 1) + "% / " +
             util::Table::num(cs.latency_ms[q - 1], 1) + "ms";
    };
    t.add_row({name, cell(1), cell(2), cell(3)});
  };
  row("MegaTE (QoS-sequenced)", seq);
  row("MegaTE (QoS-blind ablation)", joint);
  row("Conventional (LP + hash)", conventional);
  t.print(std::cout);

  std::cout << "\nReading the table: sequencing lets class 1 claim capacity "
               "before bulk class 3 arrives (class-1 satisfaction hits "
               "100% while blind allocation lets the bulk flows crowd it "
               "out), and conventional hashing cannot tell classes apart "
               "at all — the paper's core motivation.\n"
               "Note on latency: schemes that reject long-haul flows show "
               "a *lower* mean latency purely by survivorship; compare "
               "within a class at equal satisfaction, or see "
               "bench/fig11_qos_latency for the per-pair comparison.\n";
  return 0;
}

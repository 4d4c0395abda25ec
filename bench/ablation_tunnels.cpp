// Tunnel-selection ablation (ISSUE 8 tentpole): the plan/encap hop budget
// as a planning constraint, across the two candidate-generation backends.
//
// For {ksp, centrality} x SR hop budgets {3, 4, 5, unlimited} on Cogentco*
// (Topology Zoo scale, where long paths make the budget bind) and TWAN
// (the hyper-scale meshed generator), this bench reports the frontier of
//   - tunnel count (every tunnel is a stage-1 LP column candidate),
//   - satisfied demand (same traffic matrix for every config),
//   - stage-1 runtime (fewer columns -> smaller LP),
// plus the plan/encap audit, computed from each plan: assigned flows on
// tunnels over the budget (hop_budget_violations must be 0: the tunnel
// set carries the budget, so no planned route is ever refused by
// SrHeader::serialize).
//
// The checker contract (tools/check_metrics_json) enforces on the emitted
// BENCH_ablation_tunnels.json: both backends present, zero violations,
// and — at budgets <= 5 — the centrality backend matching ksp satisfied
// demand with no more tunnels (strictly fewer on Cogentco*).

#include <iostream>
#include <string>

#include "bench_common.h"
#include "megate/te/megate_solver.h"
#include "megate/util/stopwatch.h"

int main() {
  using namespace megate;
  bench::print_header(
      "Ablation: tunnel selection backends under SR hop budgets",
      "ROADMAP item 5 / 'Centrality-based Middlepoint Selection for "
      "Traffic Engineering with Segment Routing' (PAPERS.md)");

  bench::BenchReport report("ablation_tunnels");

  const struct {
    topo::TopologyKind kind;
    std::uint64_t endpoints;
  } topologies[] = {
      {topo::TopologyKind::kCogentco, 6000},
      {topo::TopologyKind::kTwan, 6000},
  };
  const std::uint32_t budgets[] = {3, 4, 5, 0};  // 0 = unlimited

  for (const auto& [kind, endpoints] : topologies) {
    // Graph + endpoints + traffic are fixed per topology; only the tunnel
    // set (and the budget it carries) changes per config, so satisfied
    // demand is comparable across the whole frontier.
    bench::InstanceOptions iopt;
    iopt.load = 0.5;
    auto inst = bench::make_instance(kind, endpoints, iopt);
    const std::string topo_key =
        std::string("ablation_tunnels.") + topo::to_string(kind) + ".";

    util::Table t(std::string("tunnel-selection frontier on ") +
                  topo::to_string(kind));
    t.header({"backend", "budget", "tunnels", "excluded pairs",
              "satisfied %", "stage-1 (s)", "violations"});

    for (const std::uint32_t budget : budgets) {
      for (const auto selection : {topo::TunnelSelection::kKsp,
                                   topo::TunnelSelection::kCentrality}) {
        const bool centrality =
            selection == topo::TunnelSelection::kCentrality;
        topo::TunnelOptions topt;
        topt.tunnels_per_pair = iopt.tunnels_per_pair;
        topt.selection = selection;
        topt.max_sr_hops = budget;
        // Bound Yen's per-pair generation: under a tight budget the search
        // otherwise keeps producing inadmissible candidates for far-apart
        // pairs, and this bench builds 16 tunnel sets.
        topt.max_candidates = 8;
        util::Stopwatch build_sw;
        const topo::TunnelSet tunnels = topo::build_tunnels(inst->graph, topt);
        const double build_s = build_sw.elapsed_seconds();

        te::MegaTeSolver solver;
        te::TeProblem problem = inst->problem();
        problem.tunnels = &tunnels;
        const te::SolveReport solve = solver.solve(problem, {});
        const std::size_t violations =
            bench::flows_over_hop_budget(problem, solve.solution, budget);

        const std::string key = topo_key +
                                (centrality ? "centrality" : "ksp") +
                                ".budget" + std::to_string(budget) + ".";
        auto& m = report.metrics();
        m.gauge(key + "tunnels")
            .set(static_cast<double>(tunnels.total_tunnels()));
        m.gauge(key + "pairs_budget_excluded")
            .set(static_cast<double>(tunnels.stats().pairs_budget_excluded));
        m.gauge(key + "satisfied_ratio")
            .set(solve.solution.satisfied_ratio());
        m.gauge(key + "stage1_seconds").set(solve.stage1_seconds);
        m.gauge(key + "build_seconds").set(build_s);
        m.gauge(key + "hop_budget_violations")
            .set(static_cast<double>(violations));

        t.add_row({centrality ? "centrality" : "ksp",
                   budget == 0 ? "-" : std::to_string(budget),
                   std::to_string(tunnels.total_tunnels()),
                   std::to_string(tunnels.stats().pairs_budget_excluded),
                   util::Table::num(100.0 * solve.solution.satisfied_ratio(),
                                    2),
                   util::Table::num(solve.stage1_seconds, 2),
                   std::to_string(violations)});
        if (violations > 0) {
          std::cerr << "plan/encap audit FAILED: " << violations
                    << " flow(s) over max_sr_hops=" << budget << "\n";
        }
      }
    }
    t.print(std::cout);
  }

  std::cout << "Expected shape: at tight budgets the centrality backend "
               "matches ksp satisfied demand with fewer tunnels (mostly "
               "direct paths plus the rare admissible middlepoint "
               "composite), shrinking stage 1's column count; violations "
               "stay 0 everywhere — the budget is enforced at planning "
               "time, never discovered at encap time.\n";
  return 0;
}

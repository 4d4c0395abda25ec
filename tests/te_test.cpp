// Tests for megate::te — MaxSiteFlow (both backends), the solution
// checker, and the MegaTE two-stage solver's paper constraints (1a)-(1c),
// QoS sequencing and near-optimality.

#include <gtest/gtest.h>

#include "megate/obs/metrics.h"
#include "megate/te/checker.h"
#include "megate/te/megate_solver.h"
#include "megate/te/site_lp.h"
#include "megate/topo/failures.h"
#include "test_helpers.h"

namespace megate::te {
namespace {

using megate::testing::Scenario;
using megate::testing::make_scenario;

// --- MaxSiteFlow -----------------------------------------------------------

TEST(SiteLp, SimplexAndPackingAgree) {
  auto s = make_scenario(8, 14, 20, 0.2);
  auto demands = s->traffic.site_demands();
  SiteLpOptions simplex_opt;
  simplex_opt.backend = SiteLpOptions::Backend::kSimplex;
  SiteLpOptions packing_opt;
  packing_opt.backend = SiteLpOptions::Backend::kPacking;
  packing_opt.packing_epsilon = 0.05;

  auto exact = solve_max_site_flow(s->graph, s->tunnels, demands, {}, 1e-3,
                                   simplex_opt);
  auto approx = solve_max_site_flow(s->graph, s->tunnels, demands, {}, 1e-3,
                                    packing_opt);
  ASSERT_EQ(exact.status, lp::Status::kOptimal);
  ASSERT_EQ(approx.status, lp::Status::kOptimal);
  EXPECT_TRUE(exact.used_simplex);
  EXPECT_FALSE(approx.used_simplex);
  EXPECT_GE(approx.objective, 0.85 * exact.objective);
  EXPECT_LE(approx.objective, exact.objective * 1.0 + 1e-6);
}

TEST(SiteLp, RespectsDemandCaps) {
  auto s = make_scenario(6, 10, 10, 0.1);
  auto demands = s->traffic.site_demands();
  auto res = solve_max_site_flow(s->graph, s->tunnels, demands, {}, 1e-3);
  for (const auto& [pair, alloc] : res.alloc) {
    double sum = 0.0;
    for (double f : alloc) sum += f;
    EXPECT_LE(sum, demands.at(pair) * (1.0 + 1e-6));
  }
}

TEST(SiteLp, RespectsLinkCapacities) {
  auto s = make_scenario(6, 10, 40, 0.8);  // heavy load
  auto demands = s->traffic.site_demands();
  auto res = solve_max_site_flow(s->graph, s->tunnels, demands, {}, 1e-3);
  std::vector<double> usage(s->graph.num_links(), 0.0);
  for (const auto& [pair, alloc] : res.alloc) {
    const auto& ts = s->tunnels.tunnels(pair.src, pair.dst);
    for (std::size_t t = 0; t < alloc.size(); ++t) {
      for (topo::EdgeId e : ts[t].links) usage[e] += alloc[t];
    }
  }
  for (topo::EdgeId e = 0; e < s->graph.num_links(); ++e) {
    EXPECT_LE(usage[e], s->graph.link(e).capacity_gbps * (1 + 1e-6));
  }
}

TEST(SiteLp, CapacityOverrideShrinksAllocation) {
  auto s = make_scenario(6, 10, 40, 0.8);
  auto demands = s->traffic.site_demands();
  auto full = solve_max_site_flow(s->graph, s->tunnels, demands, {}, 1e-3);
  std::vector<double> half(s->graph.num_links());
  for (topo::EdgeId e = 0; e < s->graph.num_links(); ++e) {
    half[e] = s->graph.link(e).capacity_gbps * 0.5;
  }
  auto halved =
      solve_max_site_flow(s->graph, s->tunnels, demands, half, 1e-3);
  EXPECT_LT(halved.objective, full.objective);
}

TEST(SiteLp, RejectsBadOverrideSize) {
  auto s = make_scenario(4, 6, 5);
  auto demands = s->traffic.site_demands();
  std::vector<double> wrong(3, 1.0);
  EXPECT_THROW(
      solve_max_site_flow(s->graph, s->tunnels, demands, wrong, 1e-3),
      std::invalid_argument);
}

TEST(SiteLp, EmptyDemandsYieldEmptyAllocation) {
  auto s = make_scenario(4, 6, 5);
  std::unordered_map<topo::SitePair, double, topo::SitePairHash> none;
  auto res = solve_max_site_flow(s->graph, s->tunnels, none, {}, 1e-3);
  EXPECT_EQ(res.status, lp::Status::kOptimal);
  EXPECT_TRUE(res.alloc.empty());
}

TEST(SiteLp, EpsilonPrefersShortTunnels) {
  // One pair, ample capacity: with a nonzero epsilon all flow must land
  // on the weight-1 tunnel.
  auto s = make_scenario(6, 12, 10, 0.05);
  auto demands = s->traffic.site_demands();
  auto res = solve_max_site_flow(s->graph, s->tunnels, demands, {}, 1e-2);
  std::size_t on_best = 0, on_rest = 0;
  for (const auto& [pair, alloc] : res.alloc) {
    for (std::size_t t = 0; t < alloc.size(); ++t) {
      if (alloc[t] > 1e-9) (t == 0 ? on_best : on_rest) += 1;
    }
  }
  EXPECT_GT(on_best, on_rest);  // light load: shortest tunnels dominate
}

// --- checker ---------------------------------------------------------------

TEST(Checker, AcceptsEmptySolution) {
  auto s = make_scenario(4, 6, 5);
  TeSolution sol;
  sol.total_demand_gbps = s->traffic.total_demand_gbps();
  auto res = check_solution(s->problem(), sol);
  EXPECT_TRUE(res.ok) << res.violations.front();
}

TEST(Checker, FlagsOverloadedLink) {
  auto s = make_scenario(4, 6, 5);
  TeSolution sol;
  // Grab any traffic pair and allocate far beyond capacity.
  ASSERT_FALSE(s->traffic.pairs().empty());
  const auto& [pair, flows] = *s->traffic.pairs().begin();
  PairAllocation alloc;
  alloc.tunnel_alloc.assign(s->tunnels.tunnels(pair.src, pair.dst).size(),
                            0.0);
  alloc.tunnel_alloc[0] = 1e9;
  sol.pairs[pair] = alloc;
  auto res = check_solution(s->problem(), sol);
  EXPECT_FALSE(res.ok);
  EXPECT_GT(res.max_link_utilization, 1.0);
}

TEST(Checker, FlagsAssignmentToDeadTunnel) {
  auto s = make_scenario(4, 6, 5);
  ASSERT_FALSE(s->traffic.pairs().empty());
  const auto& [pair, flows] = *s->traffic.pairs().begin();
  const auto& ts = s->tunnels.tunnels(pair.src, pair.dst);
  ASSERT_FALSE(ts.empty());
  s->graph.set_link_state(ts[0].links.front(), false);
  TeSolution sol;
  PairAllocation alloc;
  alloc.tunnel_alloc.assign(ts.size(), 0.0);
  alloc.flow_tunnel.assign(flows.size(), 0);  // everyone on dead tunnel 0
  sol.pairs[pair] = alloc;
  auto res = check_solution(s->problem(), sol);
  EXPECT_FALSE(res.ok);
}

TEST(Checker, FlagsOutOfRangeTunnelIndex) {
  auto s = make_scenario(4, 6, 5);
  const auto& [pair, flows] = *s->traffic.pairs().begin();
  TeSolution sol;
  PairAllocation alloc;
  alloc.tunnel_alloc.assign(s->tunnels.tunnels(pair.src, pair.dst).size(),
                            0.0);
  alloc.flow_tunnel.assign(flows.size(), 99);  // nonexistent tunnel
  sol.pairs[pair] = alloc;
  EXPECT_FALSE(check_solution(s->problem(), sol).ok);
}

TEST(Checker, FlagsSatisfiedAboveTotal) {
  auto s = make_scenario(4, 6, 5);
  TeSolution sol;
  sol.total_demand_gbps = 10.0;
  sol.satisfied_gbps = 20.0;
  EXPECT_FALSE(check_solution(s->problem(), sol).ok);
}

TEST(Checker, RequireFlowAssignmentOption) {
  auto s = make_scenario(4, 6, 5);
  const auto& [pair, flows] = *s->traffic.pairs().begin();
  TeSolution sol;
  PairAllocation alloc;
  alloc.tunnel_alloc.assign(s->tunnels.tunnels(pair.src, pair.dst).size(),
                            0.0);
  sol.pairs[pair] = alloc;  // fractional only
  CheckOptions opt;
  opt.require_flow_assignment = true;
  EXPECT_FALSE(check_solution(s->problem(), sol, opt).ok);
}

// --- MegaTE solver -----------------------------------------------------------

class MegaTeSuite : public ::testing::TestWithParam<double> {};

TEST_P(MegaTeSuite, SatisfiesPaperConstraintsAcrossLoads) {
  const double load = GetParam();
  auto s = make_scenario(10, 18, 30, load);
  MegaTeSolver solver;
  TeSolution sol = solver.solve(s->problem(), {}).solution;
  CheckOptions opt;
  opt.require_flow_assignment = true;
  auto res = check_solution(s->problem(), sol, opt);
  EXPECT_TRUE(res.ok) << (res.violations.empty() ? ""
                                                 : res.violations.front());
  EXPECT_GT(sol.satisfied_gbps, 0.0);
  EXPECT_LE(sol.satisfied_ratio(), 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Loads, MegaTeSuite,
                         ::testing::Values(0.05, 0.15, 0.4, 0.8, 1.5));

TEST(MegaTe, NearSiteLpOptimum) {
  auto s = make_scenario(8, 14, 40, 0.3);
  MegaTeSolver solver;
  TeSolution sol = solver.solve(s->problem(), {}).solution;
  // The fractional site LP upper-bounds any indivisible assignment.
  auto demands = s->traffic.site_demands();
  SiteLpOptions lp_opt;
  lp_opt.backend = SiteLpOptions::Backend::kSimplex;
  auto bound =
      solve_max_site_flow(s->graph, s->tunnels, demands, {}, 0.0, lp_opt);
  double lp_total = 0.0;
  for (const auto& [pair, alloc] : bound.alloc) {
    for (double f : alloc) lp_total += f;
  }
  EXPECT_LE(sol.satisfied_gbps, lp_total * (1.0 + 1e-6));
  EXPECT_GE(sol.satisfied_gbps, 0.85 * lp_total)
      << "MegaTE should be near the fractional optimum";
}

TEST(MegaTe, LightLoadSatisfiesAlmostEverything) {
  auto s = make_scenario(8, 14, 20, 0.03);
  MegaTeSolver solver;
  TeSolution sol = solver.solve(s->problem(), {}).solution;
  EXPECT_GT(sol.satisfied_ratio(), 0.95);
}

TEST(MegaTe, FlowsAreIndivisible) {
  auto s = make_scenario(8, 14, 30, 0.3);
  MegaTeSolver solver;
  TeSolution sol = solver.solve(s->problem(), {}).solution;
  // Every flow is either unassigned or on exactly one tunnel — encoded by
  // the single index per flow; verify vector shape matches the traffic.
  for (const auto& [pair, flows] : s->traffic.pairs()) {
    const auto& alloc = sol.pairs.at(pair);
    EXPECT_EQ(alloc.flow_tunnel.size(), flows.size());
  }
}

TEST(MegaTe, QosSequencingPutsClass1OnShortTunnels) {
  auto s = make_scenario(10, 18, 60, 0.9, 7);  // congested
  MegaTeOptions seq_opt;
  seq_opt.qos_sequencing = true;
  MegaTeSolver seq(seq_opt);
  TeSolution with_seq = seq.solve(s->problem(), {}).solution;

  MegaTeOptions flat_opt;
  flat_opt.qos_sequencing = false;
  MegaTeSolver flat(flat_opt);
  TeSolution without = flat.solve(s->problem(), {}).solution;

  const double lat_seq = mean_latency_ms(s->problem(), with_seq, 1);
  const double lat_flat = mean_latency_ms(s->problem(), without, 1);
  // With sequencing, class 1 is allocated first on uncontended capacity
  // and FastSSP walks tunnels in ascending weight (= latency), so class-1
  // *latency* must not be worse than the QoS-blind run. (Hop count is not
  // a valid proxy here: the lowest-latency tunnel can have more hops.)
  EXPECT_LE(lat_seq, lat_flat * 1.05 + 0.1);

  // Class-1 demand should be satisfied at a higher rate than class 3.
  double q1_total = 0, q1_ok = 0, q3_total = 0, q3_ok = 0;
  for (const auto& [pair, flows] : s->traffic.pairs()) {
    const auto& alloc = with_seq.pairs.at(pair);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const double d = flows[i].demand_gbps;
      if (flows[i].qos == tm::QosClass::kClass1) {
        q1_total += d;
        if (alloc.flow_tunnel[i] >= 0) q1_ok += d;
      } else if (flows[i].qos == tm::QosClass::kClass3) {
        q3_total += d;
        if (alloc.flow_tunnel[i] >= 0) q3_ok += d;
      }
    }
  }
  ASSERT_GT(q1_total, 0.0);
  ASSERT_GT(q3_total, 0.0);
  EXPECT_GE(q1_ok / q1_total, q3_ok / q3_total - 0.02);
}

TEST(MegaTe, DeterministicAcrossRuns) {
  auto s = make_scenario(8, 14, 30, 0.3);
  MegaTeOptions opt;
  opt.threads = 1;  // single-threaded for bit-stable accumulation order
  MegaTeSolver a(opt), b(opt);
  TeSolution sa = a.solve(s->problem(), {}).solution;
  TeSolution sb = b.solve(s->problem(), {}).solution;
  EXPECT_DOUBLE_EQ(sa.satisfied_gbps, sb.satisfied_gbps);
}

TEST(MegaTe, ParallelMatchesSerialSatisfaction) {
  auto s = make_scenario(8, 14, 30, 0.3);
  MegaTeOptions serial_opt;
  serial_opt.threads = 1;
  MegaTeOptions par_opt;
  par_opt.threads = 4;
  TeSolution serial = MegaTeSolver(serial_opt).solve(s->problem(), {}).solution;
  TeSolution parallel = MegaTeSolver(par_opt).solve(s->problem(), {}).solution;
  // Per-pair stage 2 is independent across pairs, so results agree.
  EXPECT_NEAR(serial.satisfied_gbps, parallel.satisfied_gbps, 1e-6);
}

TEST(MegaTe, StageTimersPopulated) {
  auto s = make_scenario(8, 14, 30, 0.3);
  MegaTeSolver solver;
  const SolveReport report = solver.solve(s->problem(), SolveContext{});
  EXPECT_GE(report.stage1_seconds, 0.0);
  EXPECT_GE(report.stage2_seconds, 0.0);
  EXPECT_GE(report.solution.solve_time_s, report.stage1_seconds);
}

TEST(MegaTe, UnattributedGaugeIsTheGlueOutsideBothStages) {
  auto s = make_scenario(8, 14, 30, 0.3);
  obs::MetricsRegistry reg;
  MegaTeOptions opt;
  opt.metrics = &reg;
  MegaTeSolver solver(opt);
  const SolveReport report = solver.solve(s->problem(), SolveContext{});
  ASSERT_TRUE(report.ok());
  const double solve_s = reg.gauge("te.last.solve_seconds").value();
  const double glue_s = reg.gauge("te.solve.unattributed_seconds").value();
  EXPECT_GE(glue_s, 0.0);
  EXPECT_LE(glue_s, solve_s);
  EXPECT_NEAR(glue_s,
              solve_s - reg.gauge("te.last.stage1_seconds").value() -
                  reg.gauge("te.last.stage2_seconds").value(),
              1e-12);
}

TEST(MegaTe, Stage1LedgerIsBoundedByItsDualBound) {
  auto s = make_scenario(10, 18, 30, 0.6);
  MegaTeOptions opt;
  opt.site_lp.backend = SiteLpOptions::Backend::kPacking;
  MegaTeSolver solver(opt);
  const SolveReport report = solver.solve(s->problem(), SolveContext{});
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.stage1_objective, 0.0);
  EXPECT_LE(report.stage1_objective, report.stage1_dual_bound);
  // The ledger sums the rounds' SiteLpResults; with QoS sequencing off the
  // single round is a plain MaxSiteFlow on full capacity.
  opt.qos_sequencing = false;
  MegaTeSolver joint(opt);
  const SolveReport one = joint.solve(s->problem(), SolveContext{});
  const SiteLpResult lp =
      solve_max_site_flow(s->graph, s->tunnels, s->traffic.site_demands(), {},
                          s->problem().epsilon, opt.site_lp);
  EXPECT_EQ(one.stage1_objective, lp.objective);
  EXPECT_EQ(one.stage1_dual_bound, lp.dual_bound);
  EXPECT_LE(0.0, one.stage1_objective);
  EXPECT_LE(one.stage1_objective, one.stage1_dual_bound);
}

TEST(MegaTe, InvalidProblemThrows) {
  MegaTeSolver solver;
  TeProblem bad;  // null pointers
  EXPECT_THROW(solver.solve(bad, {}), std::invalid_argument);
}

TEST(MegaTe, WorksAfterLinkFailures) {
  auto s = make_scenario(10, 18, 30, 0.3);
  auto events = topo::inject_link_failures(s->graph, 2, 99);
  topo::repair_tunnels(s->graph, s->tunnels);
  MegaTeSolver solver;
  TeSolution sol = solver.solve(s->problem(), {}).solution;
  CheckOptions opt;
  opt.require_flow_assignment = true;
  auto res = check_solution(s->problem(), sol, opt);
  EXPECT_TRUE(res.ok) << (res.violations.empty() ? ""
                                                 : res.violations.front());
  topo::restore_failures(s->graph, events);
}

}  // namespace
}  // namespace megate::te

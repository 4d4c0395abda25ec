// Tests for the baseline solvers (LP-all, NCFlow, TEAL) and the shared
// fractional-solution utilities (hash assignment, latency metrics).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "megate/te/baselines.h"
#include "megate/te/checker.h"
#include "megate/te/megate_solver.h"
#include "test_helpers.h"

namespace megate::te {
namespace {

using megate::testing::make_scenario;

// --- LP-all ------------------------------------------------------------

TEST(LpAll, FeasibleAndBoundsDemand) {
  auto s = make_scenario(6, 10, 15, 0.3);
  LpAllSolver solver;
  TeSolution sol = solver.solve(s->problem());
  EXPECT_TRUE(sol.solved);
  auto res = check_solution(s->problem(), sol);
  EXPECT_TRUE(res.ok) << (res.violations.empty() ? ""
                                                 : res.violations.front());
  EXPECT_LE(sol.satisfied_ratio(), 1.0 + 1e-9);
  EXPECT_GT(sol.satisfied_ratio(), 0.0);
}

TEST(LpAll, RefusesOversizedInstance) {
  auto s = make_scenario(6, 10, 40, 0.3);
  LpAllOptions opt;
  opt.max_flows = 10;  // force the paper's OOM wall
  LpAllSolver solver(opt);
  TeSolution sol = solver.solve(s->problem());
  EXPECT_FALSE(sol.solved);
  EXPECT_GT(sol.est_memory_bytes, 0u);
}

TEST(LpAll, MatchesSiteLevelOptimumOnAggregate) {
  // The endpoint-granular fractional LP has the same optimum as the site
  // LP because endpoint pairs of one site pair are interchangeable.
  auto s = make_scenario(6, 10, 12, 0.25);
  LpAllSolver lp_all;
  MegaTeSolver megate;
  TeSolution frac = lp_all.solve(s->problem());
  TeSolution integral = megate.solve(s->problem(), {}).solution;
  // MegaTE (indivisible flows) can never beat the fractional optimum.
  EXPECT_LE(integral.satisfied_gbps, frac.satisfied_gbps * 1.02 + 1e-6);
  // ...but should be close (the paper: 88.1% vs 88.2% on B4*).
  EXPECT_GE(integral.satisfied_gbps, 0.85 * frac.satisfied_gbps);
}

// --- NCFlow -----------------------------------------------------------

TEST(NcFlow, FeasibleAndBelowLpAll) {
  auto s = make_scenario(9, 16, 15, 0.4);
  NcFlowSolver ncflow;
  LpAllSolver lp_all;
  TeSolution nc = ncflow.solve(s->problem());
  TeSolution opt = lp_all.solve(s->problem());
  ASSERT_TRUE(nc.solved);
  auto res = check_solution(s->problem(), nc);
  EXPECT_TRUE(res.ok) << (res.violations.empty() ? ""
                                                 : res.violations.front());
  // Cluster contraction restricts paths: never above the true optimum.
  EXPECT_LE(nc.satisfied_gbps, opt.satisfied_gbps * (1.0 + 1e-6));
  EXPECT_GT(nc.satisfied_ratio(), 0.1);
}

TEST(NcFlow, RefusesOversizedInstance) {
  auto s = make_scenario(6, 10, 40, 0.3);
  NcFlowOptions opt;
  opt.max_flows = 10;
  NcFlowSolver solver(opt);
  EXPECT_FALSE(solver.solve(s->problem()).solved);
}

// --- TEAL -------------------------------------------------------------

TEST(Teal, FeasibleAfterProjection) {
  auto s = make_scenario(9, 16, 25, 0.8);  // heavy load forces projection
  TealSolver teal;
  TeSolution sol = teal.solve(s->problem());
  ASSERT_TRUE(sol.solved);
  auto res = check_solution(s->problem(), sol);
  EXPECT_TRUE(res.ok) << (res.violations.empty() ? ""
                                                 : res.violations.front());
}

TEST(Teal, LightLoadNeedsNoProjection) {
  auto s = make_scenario(6, 10, 10, 0.02);
  TealSolver teal;
  TeSolution sol = teal.solve(s->problem());
  EXPECT_GT(sol.satisfied_ratio(), 0.95);
}

TEST(Teal, BelowOptimum) {
  auto s = make_scenario(9, 16, 15, 0.5);
  TealSolver teal;
  LpAllSolver lp_all;
  TeSolution t = teal.solve(s->problem());
  TeSolution opt = lp_all.solve(s->problem());
  EXPECT_LE(t.satisfied_gbps, opt.satisfied_gbps * (1.0 + 1e-6));
}

TEST(Teal, RefusesOversizedInstance) {
  auto s = make_scenario(6, 10, 40, 0.3);
  TealOptions opt;
  opt.max_flows = 10;
  EXPECT_FALSE(TealSolver(opt).solve(s->problem()).solved);
}

TEST(Teal, NeverOverloadsAcrossLoads) {
  for (const double load : {0.3, 1.2, 2.5}) {
    auto s = make_scenario(8, 14, 20, load);
    TeSolution sol = TealSolver().solve(s->problem());
    EXPECT_EQ(sol.iterations, TealSolver::kAdmmIterations);
    auto res = check_solution(s->problem(), sol);
    EXPECT_TRUE(res.ok) << "load=" << load;
  }
}

// --- hash assignment + latency metrics -------------------------------------

TEST(HashAssign, AssignsFlowsProportionally) {
  auto s = make_scenario(6, 10, 25, 0.2);
  LpAllSolver lp_all;
  TeSolution sol = lp_all.solve(s->problem());
  assign_flows_by_hash(s->problem(), sol, 42);
  std::size_t assigned = 0, total = 0;
  for (const auto& [pair, alloc] : sol.pairs) {
    auto it = s->traffic.pairs().find(pair);
    if (it == s->traffic.pairs().end()) continue;
    total += it->second.size();
    for (std::int32_t t : alloc.flow_tunnel) assigned += t >= 0;
  }
  EXPECT_GT(total, 0u);
  EXPECT_GT(assigned, 0u);
  // Light load: nearly everything admitted by hashing.
  EXPECT_GT(static_cast<double>(assigned) / total, 0.6);
}

TEST(HashAssign, DeterministicInSeed) {
  auto s = make_scenario(6, 10, 15, 0.2);
  LpAllSolver lp_all;
  TeSolution a = lp_all.solve(s->problem());
  TeSolution b = a;
  assign_flows_by_hash(s->problem(), a, 7);
  assign_flows_by_hash(s->problem(), b, 7);
  for (const auto& [pair, alloc] : a.pairs) {
    EXPECT_EQ(alloc.flow_tunnel, b.pairs.at(pair).flow_tunnel);
  }
}

TEST(HashAssign, QosBlindMixing) {
  // The defining failure of conventional TE: class-1 flows land on long
  // tunnels whenever the aggregate split uses them.
  auto s = make_scenario(6, 10, 40, 0.9, 11);
  LpAllSolver lp_all;
  TeSolution sol = lp_all.solve(s->problem());
  assign_flows_by_hash(s->problem(), sol, 5);
  std::size_t q1_on_long = 0;
  for (const auto& [pair, alloc] : sol.pairs) {
    auto it = s->traffic.pairs().find(pair);
    if (it == s->traffic.pairs().end()) continue;
    for (std::size_t i = 0; i < alloc.flow_tunnel.size(); ++i) {
      if (it->second[i].qos == tm::QosClass::kClass1 &&
          alloc.flow_tunnel[i] > 0) {
        ++q1_on_long;
      }
    }
  }
  EXPECT_GT(q1_on_long, 0u) << "hashing should strand some class-1 flows";
}

TEST(LatencyMetrics, HopsAndMsConsistent) {
  auto s = make_scenario(6, 10, 15, 0.2);
  MegaTeSolver megate;
  TeSolution sol = megate.solve(s->problem(), {}).solution;
  const double ms = mean_latency_ms(s->problem(), sol, 0);
  const double hops = mean_latency_hops(s->problem(), sol, 0);
  EXPECT_GT(ms, 0.0);
  EXPECT_GE(hops, 1.0);
}

TEST(LatencyMetrics, Class1NotWorseThanClass3UnderMegaTe) {
  auto s = make_scenario(10, 18, 50, 1.0, 3);
  MegaTeSolver megate;
  TeSolution sol = megate.solve(s->problem(), {}).solution;
  const double l1 = mean_latency_hops(s->problem(), sol, 1);
  const double l3 = mean_latency_hops(s->problem(), sol, 3);
  if (l1 > 0.0 && l3 > 0.0) {
    EXPECT_LE(l1, l3 * 1.25 + 0.5);
  }
}

// Cross-solver ranking sweep (the Fig. 10 ordering property).
class SolverRanking : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverRanking, MegaTeBetweenBaselinesAndOptimum) {
  auto s = make_scenario(9, 16, 20, 0.5, GetParam());
  LpAllSolver lp_all;
  MegaTeSolver megate;
  NcFlowSolver ncflow;
  const double opt = lp_all.solve(s->problem()).satisfied_gbps;
  const double mega = megate.solve(s->problem(), {}).solution.satisfied_gbps;
  const double nc = ncflow.solve(s->problem()).satisfied_gbps;
  EXPECT_LE(mega, opt * 1.02 + 1e-6);
  EXPECT_LE(nc, opt * (1.0 + 1e-6));
  // MegaTE should not be materially below NCFlow (paper: it is above).
  EXPECT_GE(mega, nc * 0.9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverRanking,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- pinned constants ------------------------------------------------------

/// Bit digest of a fractional plan: every pair's per-tunnel allocation
/// bits in sorted pair order, then the satisfied-demand bits.
std::uint64_t plan_digest(const TeSolution& sol) {
  std::vector<std::pair<topo::SitePair, const PairAllocation*>> pairs;
  for (const auto& [pair, alloc] : sol.pairs) pairs.emplace_back(pair, &alloc);
  std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    return a.first.src != b.first.src ? a.first.src < b.first.src
                                      : a.first.dst < b.first.dst;
  });
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const auto& [pair, alloc] : pairs) {
    for (double x : alloc->tunnel_alloc) {
      h = (h ^ std::bit_cast<std::uint64_t>(x)) * 0x100000001B3ULL;
    }
  }
  h = (h ^ std::bit_cast<std::uint64_t>(sol.satisfied_gbps)) * 0x100000001B3ULL;
  return h;
}

/// Bit digest of a Teal plan, recorded at the commit before the softmax
/// temperature became a constant. TealRepairParity cannot see that value:
/// its oracle reads the same constant. The plan needs projection, so it
/// also moves with the ADMM iteration count.
constexpr std::uint64_t kPinnedTealPlan = 0xfc116716a79cf009ULL;

TEST(TealPinned, PlanDigestMatchesParent) {
  auto s = make_scenario(9, 16, 25, 0.8);
  TealSolver teal;
  const TeSolution sol = teal.solve(s->problem());
  ASSERT_TRUE(sol.solved);
  const std::uint64_t h = plan_digest(sol);
  EXPECT_EQ(h, kPinnedTealPlan) << std::hex << "got 0x" << h;
}

/// LP-all's two paths, recorded at the commit before the simplex cutoff
/// and the packing epsilon became constants. The first instance's tableau
/// has 1.53M cells and the second's 2.4M, so halving or doubling the 2M
/// cutoff moves one of them to the other backend (est_memory_bytes is
/// cells * 8 on the simplex path); the packing plan moves with epsilon.
constexpr std::uint64_t kPinnedLpAllSimplexBytes = 12224080;
constexpr std::uint64_t kPinnedLpAllPackingBytes = 175936;
constexpr std::uint64_t kPinnedLpAllPackingPlan = 0x329ef6e688698ecaULL;

TEST(LpAllPinned, BackendCutoffAndPackingPlanMatchParent) {
  auto simplex = make_scenario(10, 18, 40, 0.5);
  const TeSolution exact = LpAllSolver().solve(simplex->problem());
  ASSERT_TRUE(exact.solved);
  EXPECT_EQ(exact.est_memory_bytes, kPinnedLpAllSimplexBytes);

  auto packing = make_scenario(10, 18, 50, 0.5);
  const TeSolution approx = LpAllSolver().solve(packing->problem());
  ASSERT_TRUE(approx.solved);
  EXPECT_EQ(approx.est_memory_bytes, kPinnedLpAllPackingBytes);
  const std::uint64_t h = plan_digest(approx);
  EXPECT_EQ(h, kPinnedLpAllPackingPlan) << std::hex << "got 0x" << h;
}

/// NCFlow plan on 10 sites, recorded at the commit before its packing
/// epsilon and cluster count became constants: max(2, ceil(cbrt(10))) = 3
/// clusters, where ceil(sqrt(10)) would give 4.
constexpr std::uint64_t kPinnedNcFlowPlan = 0x22a033fa1d75625aULL;

TEST(NcFlowPinned, PlanDigestMatchesParent) {
  auto s = make_scenario(10, 18, 30, 0.5);
  const TeSolution sol = NcFlowSolver().solve(s->problem());
  ASSERT_TRUE(sol.solved);
  const std::uint64_t h = plan_digest(sol);
  EXPECT_EQ(h, kPinnedNcFlowPlan) << std::hex << "got 0x" << h;
}

}  // namespace
}  // namespace megate::te

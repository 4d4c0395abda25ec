// Tests for megate::sim — the failure timeline (Fig. 12), the period
// simulation and the production scenarios (Figs. 2, 15-17).

#include <gtest/gtest.h>

#include <bit>
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "megate/sim/failure_sim.h"
#include "megate/sim/period_sim.h"
#include "megate/sim/production.h"
#include "megate/te/baselines.h"
#include "megate/te/megate_solver.h"
#include "test_helpers.h"

namespace megate::sim {
namespace {

using megate::testing::make_scenario;

/// The options every make_scenario tunnel set was built with.
const topo::TunnelOptions kTunnels = megate::testing::scenario_tunnel_options();

// --- failure sim ----------------------------------------------------------

TEST(FailureSim, FastRecomputeLosesLess) {
  auto s = make_scenario(10, 18, 20, 0.4, 9);
  te::MegaTeSolver megate;
  FailureScenarioOptions opt;
  opt.num_failures = 2;
  // Same solver, but once pretending it needs 100 s to recompute (the
  // paper's NCFlow figure): the windowed satisfied demand must drop.
  FailureOutcome fast = run_failure_scenario(
      s->graph, s->tunnels, kTunnels, s->traffic, megate, opt, 0.5);
  FailureOutcome slow = run_failure_scenario(
      s->graph, s->tunnels, kTunnels, s->traffic, megate, opt, 100.0);
  EXPECT_NEAR(fast.post_failure_satisfied, slow.post_failure_satisfied,
              1e-9);
  EXPECT_GT(fast.windowed_satisfied, slow.windowed_satisfied);
  EXPECT_DOUBLE_EQ(slow.outage_s, 100.0 + kSyncDelayS);
}

TEST(FailureSim, GraphRestoredAfterScenario) {
  auto s = make_scenario(10, 18, 10, 0.3);
  const std::size_t links_up = s->graph.num_links_up();
  te::MegaTeSolver megate;
  FailureScenarioOptions opt;
  run_failure_scenario(s->graph, s->tunnels, kTunnels, s->traffic, megate,
                       opt);
  EXPECT_EQ(s->graph.num_links_up(), links_up);
}

TEST(FailureSim, WindowedBetweenZeroAndPre) {
  auto s = make_scenario(10, 18, 20, 0.5, 4);
  te::MegaTeSolver megate;
  FailureScenarioOptions opt;
  opt.num_failures = 3;
  FailureOutcome out =
      run_failure_scenario(s->graph, s->tunnels, kTunnels, s->traffic,
                           megate, opt);
  EXPECT_GE(out.windowed_satisfied, 0.0);
  EXPECT_LE(out.windowed_satisfied,
            std::max(out.pre_failure_satisfied, out.post_failure_satisfied) +
                1e-9);
  EXPECT_GT(out.recompute_s, 0.0);
}

TEST(FailureSim, RecomputeIncludesTunnelRepair) {
  auto s = make_scenario(10, 18, 20, 0.5, 4);
  te::MegaTeSolver megate;
  FailureScenarioOptions opt;
  opt.num_failures = 3;
  const FailureOutcome out =
      run_failure_scenario(s->graph, s->tunnels, kTunnels, s->traffic,
                           megate, opt);
  EXPECT_GT(out.repair_s, 0.0);
  EXPECT_GT(out.recompute_s, out.repair_s);  // repair, then the re-solve
  EXPECT_DOUBLE_EQ(out.outage_s, out.recompute_s + kSyncDelayS);
  // An override replaces the whole fault-to-plan time; repair is still
  // measured.
  const FailureOutcome fixed = run_failure_scenario(
      s->graph, s->tunnels, kTunnels, s->traffic, megate, opt, 42.0);
  EXPECT_EQ(fixed.recompute_s, 42.0);
  EXPECT_GT(fixed.repair_s, 0.0);
}

TEST(FailureSim, MoreFailuresNoBetter) {
  auto s = make_scenario(10, 18, 20, 0.5, 8);
  te::MegaTeSolver megate;
  FailureScenarioOptions two;
  two.num_failures = 2;
  FailureScenarioOptions five;
  five.num_failures = 5;
  FailureOutcome o2 =
      run_failure_scenario(s->graph, s->tunnels, kTunnels, s->traffic,
                           megate, two);
  FailureOutcome o5 =
      run_failure_scenario(s->graph, s->tunnels, kTunnels, s->traffic,
                           megate, five);
  EXPECT_LE(o5.post_failure_satisfied, o2.post_failure_satisfied + 0.05);
}

/// Solves with MegaTE and records, per solve, the fingerprint of the
/// tunnel set it was handed and its largest per-pair tunnel count.
class TunnelCountingSolver final : public te::Solver {
 public:
  std::string name() const override { return "counting"; }
  te::TeSolution solve(const te::TeProblem& problem) override {
    std::size_t most = 0;
    for (const auto& [pair, tunnels] : problem.tunnels->all()) {
      most = std::max(most, tunnels.size());
    }
    most_tunnels.push_back(most);
    fingerprints.push_back(problem.tunnels->fingerprint());
    return inner_.solve(problem);
  }

  std::vector<std::size_t> most_tunnels;
  std::vector<std::uint64_t> fingerprints;

 private:
  te::MegaTeSolver inner_;
};

TEST(FailureSim, RepairKeepsTheBuildsTunnelsPerPair) {
  auto s = make_scenario(10, 18, 20, 0.5, 4);
  FailureScenarioOptions opt;
  opt.num_failures = 3;
  TunnelCountingSolver solver;
  run_failure_scenario(s->graph, s->tunnels, kTunnels, s->traffic, solver,
                       opt);
  // One solve before the failures, one on the repaired tunnels.
  ASSERT_EQ(solver.most_tunnels.size(), 2u);
  EXPECT_NE(solver.fingerprints[1], solver.fingerprints[0])
      << "the failures must have forced a repair";
  for (const std::size_t most : solver.most_tunnels) {
    EXPECT_LE(most, kTunnels.tunnels_per_pair);
  }
}

// --- production scenarios ---------------------------------------------------

TEST(Production, DefaultScenarioShapes) {
  auto sc = ProductionScenario::default_scenario();
  ASSERT_EQ(sc.tunnels.size(), 3u);
  double share = 0.0;
  for (const auto& t : sc.tunnels) share += t.conventional_share;
  EXPECT_NEAR(share, 1.0, 1e-9);
}

TEST(Production, MegaTePinsByClass) {
  auto sc = ProductionScenario::default_scenario();
  const std::size_t q1 = sc.megate_tunnel_for(tm::QosClass::kClass1);
  const std::size_t q3 = sc.megate_tunnel_for(tm::QosClass::kClass3);
  // Class 1 -> lowest latency; class 3 -> cheapest.
  for (const auto& t : sc.tunnels) {
    EXPECT_LE(sc.tunnels[q1].latency_ms, t.latency_ms);
    EXPECT_LE(sc.tunnels[q3].cost_per_gbps, t.cost_per_gbps);
  }
}

TEST(Production, HashTunnelDeterministicAndDistributed) {
  auto sc = ProductionScenario::default_scenario();
  std::size_t counts[3] = {0, 0, 0};
  for (std::uint64_t f = 0; f < 3000; ++f) {
    const std::size_t t = sc.hash_tunnel(f, 1);
    ASSERT_LT(t, 3u);
    EXPECT_EQ(sc.hash_tunnel(f, 1), t);
    counts[t]++;
  }
  // Shares 0.55/0.44/0.01 should be visible in the distribution.
  EXPECT_GT(counts[0], counts[2]);
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_NEAR(static_cast<double>(counts[0]) / 3000.0, 0.55, 0.05);
}

TEST(Production, Fig2LatencySpreadIsBimodal) {
  auto sc = ProductionScenario::default_scenario();
  auto stats = conventional_latency_day(sc, 4, /*seed=*/20240804);
  ASSERT_EQ(stats.size(), 4u);
  bool some_pair_bimodal = false;
  for (const auto& p : stats) {
    ASSERT_EQ(p.samples_ms.size(), 288u);  // one day of 5-min samples
    // All samples near one of the tunnel latencies.
    for (double s : p.samples_ms) {
      const bool near20 = std::abs(s - 20.0) < 4.0;
      const bool near42 = std::abs(s - 42.0) < 4.0;
      const bool near30 = std::abs(s - 30.0) < 4.0;
      EXPECT_TRUE(near20 || near42 || near30);
    }
    if (p.p75 - p.p25 > 10.0) some_pair_bimodal = true;
  }
  EXPECT_TRUE(some_pair_bimodal)
      << "at least one pair should straddle the 20/42 ms tunnels";
}

TEST(Production, Fig15MegaTeReducesLatencyForAllApps) {
  auto sc = ProductionScenario::default_scenario();
  auto results = evaluate_app_latency(sc, fig15_apps(), 20240804);
  ASSERT_EQ(results.size(), 5u);
  double best = 0.0;
  for (const auto& r : results) {
    EXPECT_LE(r.megate_ms, r.conventional_ms + 1e-9) << r.app;
    EXPECT_GE(r.reduction_pct, 0.0);
    best = std::max(best, r.reduction_pct);
  }
  // Paper: reductions up to ~51%; with 20->42 ms tunnels the ceiling is
  // 52.4%, and some app should get a large share of it.
  EXPECT_GT(best, 30.0);
  EXPECT_LE(best, 52.5);
}

TEST(Production, Fig16AvailabilityImprovesAfterRollout) {
  auto sc = ProductionScenario::default_scenario();
  auto points = evaluate_availability(sc, 42);
  ASSERT_EQ(points.size(), 6u);
  EXPECT_FALSE(points[0].megate_deployed);  // Oct '22
  EXPECT_TRUE(points[2].megate_deployed);   // Dec '22 rollout
  for (const auto& p : points) {
    if (p.megate_deployed) {
      EXPECT_GE(p.app6_availability, 0.9999)
          << p.month << ": QoS-1 pinned to the premium path";
      EXPECT_GE(p.app7_availability, 0.97);
      EXPECT_LT(p.app7_availability, p.app6_availability)
          << "class 3 rides the cheap path";
    } else {
      EXPECT_LT(p.app6_availability, 0.9999)
          << "hash mixing drags class 1 below its requirement";
    }
  }
}

TEST(Production, Fig17BulkCostHalvesAfterRollout) {
  auto sc = ProductionScenario::default_scenario();
  auto points = evaluate_cost(sc, 42);
  ASSERT_EQ(points.size(), 6u);
  double before = 0.0, after = 0.0;
  int nb = 0, na = 0;
  for (const auto& p : points) {
    if (p.megate_deployed) {
      after += p.app9_cost;
      ++na;
    } else {
      before += p.app9_cost;
      ++nb;
    }
  }
  before /= nb;
  after /= na;
  EXPECT_NEAR(after / before, 0.5, 0.08) << "paper: -50% for App 9";
}

TEST(Production, Fig17GamingCostStable) {
  auto sc = ProductionScenario::default_scenario();
  auto points = evaluate_cost(sc, 42);
  double before = 0.0, after = 0.0;
  int nb = 0, na = 0;
  for (const auto& p : points) {
    (p.megate_deployed ? after : before) += p.app8_cost;
    (p.megate_deployed ? na : nb) += 1;
  }
  EXPECT_NEAR((after / na) / (before / nb), 1.0, 0.1)
      << "class-1 app stays on the premium path";
}

// --- pinned constants ------------------------------------------------------

/// Bit digests recorded at the commit before the simulations' fixed
/// parameters became constants: the period simulation's drift sigma and
/// EWMA alpha (kPredicted) and the failure timeline's window and sync
/// delay. The failure timeline's digest was recorded again once its tunnel repair
/// kept the build's tunnels per pair (3 here, not the default 4).
constexpr std::uint64_t kPinnedPredictedCarriage = 0xca4002c18e37b969ULL;
constexpr std::uint64_t kPinnedFailureWindow = 0x4ee7a5fd5b1a88f7ULL;

std::uint64_t pin_mix(std::uint64_t h, double v) {
  return (h ^ std::bit_cast<std::uint64_t>(v)) * 0x100000001B3ULL;
}

TEST(PeriodSimPinned, PredictedCarriageMatchesParent) {
  auto s = make_scenario(8, 12, 3, 0.2, 31);
  PeriodSimOptions opt;
  opt.periods = 6;
  opt.seed = 3;
  const auto out = run_period_simulation(s->graph, s->tunnels, s->traffic,
                                         DemandKnowledge::kPredicted, opt);
  ASSERT_EQ(out.size(), opt.periods);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const PeriodOutcome& p : out) {
    h = pin_mix(h, p.carried_gbps);
    h = pin_mix(h, p.prediction_mape);
  }
  EXPECT_EQ(h, kPinnedPredictedCarriage) << std::hex << "got 0x" << h;
}

TEST(FailureSimPinned, WindowedSatisfiedMatchesParent) {
  auto s = make_scenario(10, 18, 20, 0.5, 4);
  te::MegaTeSolver megate;
  FailureScenarioOptions opt;
  opt.num_failures = 3;
  const FailureOutcome out = run_failure_scenario(
      s->graph, s->tunnels, kTunnels, s->traffic, megate, opt, 42.0);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  h = pin_mix(h, out.outage_s);
  h = pin_mix(h, out.windowed_satisfied);
  EXPECT_EQ(h, kPinnedFailureWindow) << std::hex << "got 0x" << h;
}

}  // namespace
}  // namespace megate::sim

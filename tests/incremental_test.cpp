// Differential testing of the incremental solving layer (ISSUE tentpole):
//
//   1. Equivalence: across ~100 seeded multi-interval scenarios with
//      low-churn demand evolution, solve(problem, {.incremental = true}) must
//      pass te::check_solution and equal a cold solve bitwise — total
//      satisfied demand and every pair's flow_tunnel and tunnel_alloc —
//      including runs where fault-plan link failures strike between
//      intervals. On failure the
//      harness shrinks the scenario like property_test.cpp and reports the
//      smallest still-failing config with its exact seed.
//
//   2. Invalidation: replaying PR 1's fault machinery (FaultPlan link
//      failures via the FaultInjector, capacity derates, shard crashes)
//      must drop the memo exactly when the topology moved — a stage-2
//      cache hit right after a topology event is a test failure, and a
//      shard-only fault (no topology change) must NOT cost the cache.
//
// The chaos loop and the period simulation solve cold; their output is
// pinned by ChaosPinned and PeriodSimPinned in fault_test.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "megate/ctrl/kvstore.h"
#include "megate/ctrl/transport.h"
#include "megate/fault/fault_plan.h"
#include "megate/fault/injector.h"
#include "megate/te/checker.h"
#include "megate/te/megate_solver.h"
#include "megate/topo/failures.h"
#include "megate/util/rng.h"
#include "test_helpers.h"

namespace megate {
namespace {

/// Evolves a traffic matrix by one interval: each flow keeps its identity
/// and QoS class; about `churn` of them rescale their demand. Seeded per
/// flow, so the evolution is independent of container iteration order.
tm::TrafficMatrix evolve_traffic(const tm::TrafficMatrix& prev, double churn,
                                 std::uint64_t seed) {
  tm::TrafficMatrix out;
  for (const auto& [pair, flows] : prev.pairs()) {
    for (std::size_t i = 0; i < flows.size(); ++i) {
      tm::EndpointDemand d = flows[i];
      util::Rng rng(seed ^ (d.src * 0x9E3779B97F4A7C15ULL) ^
                    (d.dst * 0xBF58476D1CE4E5B9ULL) ^ i);
      if (rng.uniform() < churn) {
        d.demand_gbps *= 0.5 + rng.uniform();  // 0.5x .. 1.5x
      }
      out.add(d);
    }
  }
  return out;
}

/// One randomized multi-interval scenario, fully determined by a seed.
struct CaseConfig {
  std::uint64_t seed = 0;
  std::uint32_t sites = 6;
  std::uint32_t links = 9;
  std::uint32_t eps_per_site = 2;
  double load = 0.2;
  std::size_t intervals = 5;
  double churn = 0.1;
  /// Fail one duplex link from this interval on (~none when >= intervals).
  std::size_t fault_interval = ~std::size_t{0};

  std::string describe() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "Scenario{seed=%llu, sites=%u, links=%u, eps=%u, "
                  "load=%.3f, intervals=%zu, churn=%.2f, fault_at=%zd}",
                  static_cast<unsigned long long>(seed), sites, links,
                  eps_per_site, load, intervals, churn,
                  fault_interval == ~std::size_t{0}
                      ? static_cast<std::ptrdiff_t>(-1)
                      : static_cast<std::ptrdiff_t>(fault_interval));
    return buf;
  }
};

CaseConfig random_case(std::uint64_t seed) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  CaseConfig c;
  c.seed = seed;
  c.sites = static_cast<std::uint32_t>(rng.uniform_int(4, 8));
  c.links =
      c.sites + static_cast<std::uint32_t>(rng.uniform_int(0, c.sites));
  c.eps_per_site = static_cast<std::uint32_t>(rng.uniform_int(2, 5));
  c.load = 0.1 + 0.3 * rng.uniform();   // 0.1 .. 0.4
  c.churn = 0.05 + 0.2 * rng.uniform();  // low-churn regime
  c.intervals = 5;
  // A third of the scenarios take a mid-run link failure, exercising the
  // invalidate-then-reprime path inside the differential comparison.
  if (rng.uniform() < 0.33) {
    c.fault_interval = 2;
  }
  return c;
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// First bitwise difference between two plans of the same problem:
/// satisfied demand, then each pair's flow_tunnel and tunnel_alloc.
std::optional<std::string> plan_difference(const te::TeSolution& a,
                                           const te::TeSolution& b) {
  if (!bits_equal(a.satisfied_gbps, b.satisfied_gbps)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "satisfied %.17g vs %.17g Gbps",
                  a.satisfied_gbps, b.satisfied_gbps);
    return std::string(buf);
  }
  if (a.pairs.size() != b.pairs.size()) return "pair count differs";
  for (const auto& [pair, alloc] : a.pairs) {
    const auto it = b.pairs.find(pair);
    const std::string where =
        "pair " + std::to_string(pair.src) + "->" + std::to_string(pair.dst);
    if (it == b.pairs.end()) return where + " missing";
    if (alloc.flow_tunnel != it->second.flow_tunnel) {
      return where + " flow_tunnel differs";
    }
    if (!std::equal(alloc.tunnel_alloc.begin(), alloc.tunnel_alloc.end(),
                    it->second.tunnel_alloc.begin(),
                    it->second.tunnel_alloc.end(), bits_equal)) {
      return where + " tunnel_alloc differs";
    }
  }
  return std::nullopt;
}

/// Solve context for the incremental path of the unified solve() entry.
te::SolveContext inc_ctx() {
  te::SolveContext ctx;
  ctx.incremental = true;
  return ctx;
}

/// Runs one scenario: interval 0 primes the incremental solver cold; each
/// later interval evolves demand, then solves both incrementally (one
/// retained solver) and cold (fresh state), comparing validity and the
/// plans bitwise. Returns the first violation, if any.
std::optional<std::string> run_case(const CaseConfig& c) {
  auto s = testing::make_scenario(c.sites, c.links, c.eps_per_site, c.load,
                                  c.seed);
  te::MegaTeSolver inc_solver;
  te::MegaTeSolver cold_solver;
  tm::TrafficMatrix current = s->traffic;
  const topo::TunnelSet pristine = s->tunnels;

  for (std::size_t interval = 0; interval < c.intervals; ++interval) {
    if (interval > 0) {
      current = evolve_traffic(current, c.churn,
                               c.seed * 1000003ULL + interval);
    }
    if (interval == c.fault_interval) {
      // Fail the first duplex pair and repair tunnels, as the fault
      // harness does — the incremental solver must notice by itself.
      if (s->graph.num_links() >= 2) {
        s->graph.set_link_state(0, false);
        s->graph.set_link_state(1, false);
        s->tunnels = pristine;
        topo::repair_tunnels(s->graph, s->tunnels);
      }
    }

    te::TeProblem problem = s->problem();
    problem.traffic = &current;

    const te::SolveReport inc_report = inc_solver.solve(problem, inc_ctx());
    const te::TeSolution& inc = inc_report.solution;
    const te::TeSolution cold = cold_solver.solve(problem, {}).solution;

    te::CheckOptions copt;
    copt.capacity_tolerance = 1e-6;
    copt.require_flow_assignment = true;
    const te::CheckResult check = te::check_solution(problem, inc, copt);
    if (!check.ok) {
      return c.describe() + ": interval " + std::to_string(interval) +
             " incremental solution violates constraints: " +
             check.violations.front();
    }

    if (auto diff = plan_difference(inc, cold)) {
      return c.describe() + ": interval " + std::to_string(interval) +
             " incremental plan differs from cold: " + *diff;
    }

    // The fault interval must have dropped every cached stage-2 result:
    // a memo hit against the failed topology would be a stale replay.
    const te::IncrementalStats& stats = inc_report.incremental;
    if (interval == c.fault_interval && stats.ssp_cache_hits > 0) {
      return c.describe() + ": stale stage-2 memo hit after a link failure";
    }
    if (interval == c.fault_interval && interval > 0 &&
        stats.cache_invalidations == 0) {
      return c.describe() + ": link failure did not invalidate the cache";
    }
  }
  return std::nullopt;
}

/// Shrinks a failing case: fewer endpoints first, then fewer sites/links,
/// then fewer intervals. Returns the smallest still-failing config.
std::pair<CaseConfig, std::string> shrink(CaseConfig c, std::string error) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    std::vector<CaseConfig> candidates;
    if (c.eps_per_site > 1) {
      CaseConfig d = c;
      d.eps_per_site -= 1;
      candidates.push_back(d);
    }
    if (c.sites > 3) {
      CaseConfig d = c;
      d.sites -= 1;
      d.links = std::min(d.links, d.sites * 2);
      candidates.push_back(d);
    }
    if (c.links > c.sites) {
      CaseConfig d = c;
      d.links -= 1;
      candidates.push_back(d);
    }
    if (c.intervals > 2) {
      CaseConfig d = c;
      d.intervals -= 1;
      if (d.fault_interval >= d.intervals) {
        d.fault_interval = ~std::size_t{0};
      }
      candidates.push_back(d);
    }
    for (const CaseConfig& d : candidates) {
      if (auto err = run_case(d)) {
        c = d;
        error = *err;
        shrunk = true;
        break;
      }
    }
  }
  return {c, error};
}

TEST(IncrementalDifferential, MatchesColdSolveAcrossRandomScenarios) {
  constexpr std::uint64_t kSeeds = 100;
  std::size_t failures = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const CaseConfig c = random_case(seed);
    auto error = run_case(c);
    if (!error) continue;
    const auto [smallest, message] = shrink(c, *error);
    ADD_FAILURE() << "seed " << seed << " failed; shrunk to "
                  << smallest.describe() << "\n  " << message;
    if (++failures >= 3) break;  // enough to debug; don't spam
  }
}

// ---------------------------------------------------------------------------
// Cache behaviour on a fixed scenario.
// ---------------------------------------------------------------------------

class IncrementalCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    s_ = testing::make_scenario(8, 12, 3, 0.15, 11);
  }
  std::unique_ptr<testing::Scenario> s_;
  te::MegaTeSolver solver_;
};

TEST_F(IncrementalCacheTest, RepeatSolveHitsMemo) {
  const te::TeProblem problem = s_->problem();
  const te::SolveReport first = solver_.solve(problem, inc_ctx());
  EXPECT_FALSE(first.incremental.used_incremental);
  EXPECT_EQ(first.incremental.ssp_cache_hits, 0u);

  const te::SolveReport second = solver_.solve(problem, inc_ctx());
  const te::IncrementalStats& stats = second.incremental;
  EXPECT_TRUE(stats.used_incremental);
  EXPECT_GT(stats.ssp_cache_hits, 0u);
  EXPECT_EQ(stats.ssp_cache_misses, 0u);
  EXPECT_EQ(stats.cache_invalidations, 0u);
  // Identical inputs -> bit-identical outputs.
  const auto diff = plan_difference(first.solution, second.solution);
  EXPECT_FALSE(diff.has_value()) << diff.value_or("");
}

TEST_F(IncrementalCacheTest, LinkFailureInvalidatesEverything) {
  const te::TeProblem problem = s_->problem();
  (void)solver_.solve(problem, inc_ctx());
  const te::SolveReport warm = solver_.solve(problem, inc_ctx());
  ASSERT_GT(warm.incremental.ssp_cache_hits, 0u);

  // Duplex link down + tunnel repair, as the fault harness does.
  s_->graph.set_link_state(0, false);
  s_->graph.set_link_state(1, false);
  topo::repair_tunnels(s_->graph, s_->tunnels);

  const te::SolveReport after = solver_.solve(s_->problem(), inc_ctx());
  const te::IncrementalStats& stats = after.incremental;
  EXPECT_EQ(stats.cache_invalidations, 1u);
  EXPECT_FALSE(stats.used_incremental);
  EXPECT_EQ(stats.ssp_cache_hits, 0u) << "stale memo hit after link failure";

  // The degraded topology is stable now: the reprimed cache serves hits.
  const te::SolveReport reprimed = solver_.solve(s_->problem(), inc_ctx());
  EXPECT_TRUE(reprimed.incremental.used_incremental);
  EXPECT_GT(reprimed.incremental.ssp_cache_hits, 0u);

  // Recovery is a topology change too — the degraded-state cache must go.
  s_->graph.set_link_state(0, true);
  s_->graph.set_link_state(1, true);
  topo::repair_tunnels(s_->graph, s_->tunnels);
  const te::SolveReport recovered = solver_.solve(s_->problem(), inc_ctx());
  EXPECT_EQ(recovered.incremental.ssp_cache_hits, 0u)
      << "stale memo hit after link recovery";
}

TEST_F(IncrementalCacheTest, CapacityDerateInvalidates) {
  const te::TeProblem problem = s_->problem();
  (void)solver_.solve(problem, inc_ctx());
  const te::SolveReport warm = solver_.solve(problem, inc_ctx());
  ASSERT_GT(warm.incremental.ssp_cache_hits, 0u);

  s_->graph.link(0).capacity_gbps *= 0.5;
  const te::SolveReport after = solver_.solve(s_->problem(), inc_ctx());
  const te::IncrementalStats& stats = after.incremental;
  EXPECT_EQ(stats.cache_invalidations, 1u);
  EXPECT_EQ(stats.ssp_cache_hits, 0u)
      << "stale memo hit after capacity derate";
}

TEST_F(IncrementalCacheTest, DemandChangeIsNotAnInvalidation) {
  te::TeProblem problem = s_->problem();
  (void)solver_.solve(problem, inc_ctx());

  const tm::TrafficMatrix evolved =
      evolve_traffic(s_->traffic, 0.2, 99);
  problem.traffic = &evolved;
  const te::SolveReport report = solver_.solve(problem, inc_ctx());
  const te::IncrementalStats& stats = report.incremental;
  EXPECT_TRUE(stats.used_incremental);
  EXPECT_EQ(stats.cache_invalidations, 0u);
}

TEST_F(IncrementalCacheTest, SingleLinkFaultAndRepairInvalidateOnce) {
  const te::TeProblem problem = s_->problem();
  (void)solver_.solve(problem, inc_ctx());
  const std::uint64_t before = te::topology_fingerprint(problem);
  const topo::TunnelSet original = s_->tunnels;

  const auto events = topo::inject_link_failures(s_->graph, 1, 5);
  ASSERT_FALSE(events.empty());
  topo::repair_tunnels(s_->graph, s_->tunnels);
  EXPECT_NE(s_->tunnels.fingerprint(), original.fingerprint());
  EXPECT_NE(te::topology_fingerprint(s_->problem()), before);
  const te::SolveReport fault = solver_.solve(s_->problem(), inc_ctx());
  EXPECT_EQ(fault.incremental.cache_invalidations, 1u);
  EXPECT_EQ(fault.incremental.ssp_cache_hits, 0u);

  // Restoring the links and the original tunnels restores the value.
  topo::restore_failures(s_->graph, events);
  s_->tunnels = original;
  EXPECT_EQ(te::topology_fingerprint(s_->problem()), before);
  const te::SolveReport back = solver_.solve(s_->problem(), inc_ctx());
  EXPECT_EQ(back.incremental.cache_invalidations, 1u);
  EXPECT_EQ(back.incremental.ssp_cache_hits, 0u);
}

TEST_F(IncrementalCacheTest, EmptyMemoSolveCountsEveryProbeAsMiss) {
  const te::TeProblem problem = s_->problem();
  const te::SolveReport first = solver_.solve(problem, inc_ctx());
  const std::size_t probes = first.incremental.ssp_cache_misses;
  EXPECT_GT(probes, 0u);
  EXPECT_EQ(first.incremental.ssp_cache_hits, 0u);
  // A warm repeat probes the same (pair, round) slots and hits them all.
  const te::SolveReport warm = solver_.solve(problem, inc_ctx());
  EXPECT_EQ(warm.incremental.ssp_cache_hits, probes);
  EXPECT_EQ(warm.incremental.ssp_cache_misses, 0u);
  // A fresh solver's memo is empty: every probe is a miss, no fewer.
  te::MegaTeSolver fresh;
  const te::SolveReport cold = fresh.solve(problem, inc_ctx());
  EXPECT_EQ(cold.incremental.ssp_cache_hits, 0u);
  EXPECT_EQ(cold.incremental.ssp_cache_misses, probes);
}

// ---------------------------------------------------------------------------
// Fault-plan replay (the PR 1 machinery) against the cache.
// ---------------------------------------------------------------------------

TEST(IncrementalFaultReplay, PlannedLinkFailuresInvalidateOnEveryChange) {
  auto s = testing::make_scenario(8, 12, 2, 0.15, 21);
  const topo::TunnelSet pristine = s->tunnels;

  fault::FaultPlanOptions popt;
  popt.seed = 5;
  popt.horizon_s = 300.0;
  popt.quiet_tail_s = 60.0;
  popt.shard_crashes = 0;
  popt.link_failures = 2;
  popt.pull_drop_windows = 0;
  popt.stale_windows = 0;
  const fault::FaultPlan plan =
      fault::FaultPlan::generate(popt, 0, s->graph.num_links() / 2);
  ASSERT_FALSE(plan.empty());

  fault::FaultInjector::Bindings bind;
  bind.graph = &s->graph;
  fault::FaultInjector injector(plan, bind);

  // Sample the timeline right after every event boundary.
  std::vector<double> times;
  for (const fault::FaultEvent& e : plan.events()) {
    times.push_back(e.start_s + 0.5);
    times.push_back(e.end_s() + 0.5);
  }
  std::sort(times.begin(), times.end());

  te::MegaTeSolver solver;
  (void)solver.solve(s->problem(), inc_ctx());  // prime at t=0
  for (double t : times) {
    injector.advance_to(t);
    const bool changed = injector.take_topology_changed();
    if (changed) {
      s->tunnels = pristine;
      topo::repair_tunnels(s->graph, s->tunnels);
    }
    const te::SolveReport report = solver.solve(s->problem(), inc_ctx());
    const te::IncrementalStats& stats = report.incremental;
    if (changed) {
      EXPECT_EQ(stats.ssp_cache_hits, 0u)
          << "stale memo hit after a topology event at t=" << t;
      EXPECT_GE(stats.cache_invalidations, 1u)
          << "topology event at t=" << t << " did not invalidate";
    } else {
      EXPECT_TRUE(stats.used_incremental);
      EXPECT_GT(stats.ssp_cache_hits, 0u);
    }
  }
}

TEST(IncrementalFaultReplay, ShardCrashAndRecoveryKeepTheCache) {
  auto s = testing::make_scenario(8, 12, 2, 0.15, 22);

  fault::FaultPlanOptions popt;
  popt.seed = 6;
  popt.horizon_s = 300.0;
  popt.quiet_tail_s = 60.0;
  popt.shard_crashes = 2;
  popt.link_failures = 0;
  popt.pull_drop_windows = 0;
  popt.stale_windows = 0;
  const fault::FaultPlan plan = fault::FaultPlan::generate(popt, 4, 0);
  ASSERT_FALSE(plan.empty());

  ctrl::KvStore kv(4);
  ctrl::InProcessTransport db(&kv);
  fault::FaultInjector::Bindings bind;
  bind.set_shard_up = [&](std::size_t shard, bool up) {
    db.set_shard_up(shard, up);
  };
  bind.graph = &s->graph;
  fault::FaultInjector injector(plan, bind);

  te::MegaTeSolver solver;
  (void)solver.solve(s->problem(), inc_ctx());
  for (const fault::FaultEvent& e : plan.events()) {
    injector.advance_to(e.start_s + 0.5);  // shard down
    EXPECT_FALSE(injector.take_topology_changed());
    const te::SolveReport down = solver.solve(s->problem(), inc_ctx());
    EXPECT_GT(down.incremental.ssp_cache_hits, 0u)
        << "control-plane fault must not cost the solver cache";
    injector.advance_to(e.end_s() + 0.5);  // shard recovered
    const te::SolveReport up = solver.solve(s->problem(), inc_ctx());
    EXPECT_EQ(up.incremental.cache_invalidations, 0u);
    EXPECT_GT(up.incremental.ssp_cache_hits, 0u);
  }
}

}  // namespace
}  // namespace megate

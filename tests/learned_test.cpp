// Learned-allocation suite (ISSUE 10):
//
//   1. TealRepairParity — the shared feasibility-repair kernel
//      (te/repair_kernel.h) must reproduce the pre-refactor
//      TealSolver::solve loop byte-for-byte. The original ADMM loop is
//      embedded below verbatim as the oracle and compared against the
//      refactored TealSolver across seeds, loads and link faults.
//
//   2. RepairKernel — unit behaviour: hard final projection yields
//      feasibility, down links zero out, refill recovers capacity the
//      projection freed, argument validation, arena reuse.
//
//   3. LearnedGate — MegaTeSolver's learned mode: untrained and
//      distribution-shift intervals fall back to the exact solve (and
//      recover its exact answer), warm models get accepted, and the
//      differential suite below audits >= 100 seeded intervals of
//      learned-vs-exact through te::check_solution and a direct check of
//      every assigned flow's tunnel against the SR hop budget, and a
//      digest of 24 learned-mode plans.
//
//   4. FlowPredictor satellites — predict() determinism under hash-order
//      permutation (two-construction byte equality via per-pair
//      fingerprints), EWMA decay of absent flows, mape() with zero
//      overlap, QoS preservation across observe/predict.
//
//   5. LearnedConcurrency — allocate/observe/drift_mape from concurrent
//      threads (run under TSan in ci.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <unordered_map>
#include <vector>

#include "megate/te/baselines.h"
#include "megate/te/checker.h"
#include "megate/te/learned.h"
#include "megate/te/megate_solver.h"
#include "megate/te/repair_kernel.h"
#include "megate/tm/delta.h"
#include "megate/tm/prediction.h"
#include "megate/topo/failures.h"
#include "megate/util/rng.h"
#include "test_helpers.h"

namespace megate {
namespace {

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ===========================================================================
// Part 1 — the pre-refactor TealSolver::solve, embedded verbatim as the
// bit-identity oracle (only renamed; `options_` -> `options`).
// ===========================================================================

te::TeSolution teal_reference(const te::TeProblem& problem,
                              const te::TealOptions& options) {
  if (!problem.valid()) throw std::invalid_argument("invalid TE problem");
  const topo::Graph& g = *problem.graph;
  const topo::TunnelSet& tunnels = *problem.tunnels;
  const tm::TrafficMatrix& traffic = *problem.traffic;

  te::TeSolution sol;
  sol.solver_name = "TEAL";
  sol.total_demand_gbps = traffic.total_demand_gbps();

  const std::uint64_t num_flows = traffic.num_flows();
  if (num_flows > options.max_flows) {
    sol.solved = false;
    sol.est_memory_bytes = num_flows * 4 * sizeof(double) * 3;
    return sol;
  }

  struct PairState {
    topo::SitePair pair;
    const std::vector<tm::EndpointDemand>* flows;
    std::vector<std::size_t> alive;
    std::vector<double> x;
  };
  std::vector<PairState> states;
  for (const auto& [pair, flows] : traffic.pairs()) {
    const auto& ts = tunnels.tunnels(pair.src, pair.dst);
    PairState st;
    st.pair = pair;
    st.flows = &flows;
    for (std::size_t t = 0; t < ts.size(); ++t) {
      if (ts[t].alive(g)) st.alive.push_back(t);
    }
    if (st.alive.empty()) continue;
    st.x.assign(flows.size() * st.alive.size(), 0.0);
    states.push_back(std::move(st));
  }

  for (PairState& st : states) {
    const auto& ts = tunnels.tunnels(st.pair.src, st.pair.dst);
    std::vector<double> probs(st.alive.size());
    double z = 0.0;
    for (std::size_t a = 0; a < st.alive.size(); ++a) {
      probs[a] = std::exp(-te::TealSolver::kSoftmaxTemperature *
                          (ts[st.alive[a]].weight - 1.0));
      z += probs[a];
    }
    for (double& p : probs) p /= z;
    for (std::size_t i = 0; i < st.flows->size(); ++i) {
      const double d = (*st.flows)[i].demand_gbps;
      for (std::size_t a = 0; a < st.alive.size(); ++a) {
        st.x[i * st.alive.size() + a] = d * probs[a];
      }
    }
  }

  std::vector<double> usage(g.num_links());
  std::vector<double> scale(g.num_links());
  for (std::size_t iter = 0; iter < te::TealSolver::kAdmmIterations; ++iter) {
    std::fill(usage.begin(), usage.end(), 0.0);
    for (const PairState& st : states) {
      const auto& ts = tunnels.tunnels(st.pair.src, st.pair.dst);
      std::vector<double> tunnel_sums(st.alive.size(), 0.0);
      for (std::size_t i = 0; i < st.flows->size(); ++i) {
        for (std::size_t a = 0; a < st.alive.size(); ++a) {
          tunnel_sums[a] += st.x[i * st.alive.size() + a];
        }
      }
      for (std::size_t a = 0; a < st.alive.size(); ++a) {
        for (topo::EdgeId e : ts[st.alive[a]].links) {
          usage[e] += tunnel_sums[a];
        }
      }
    }
    const bool last = iter + 1 == te::TealSolver::kAdmmIterations;
    bool any_overload = false;
    for (topo::EdgeId e = 0; e < g.num_links(); ++e) {
      const topo::Link& l = g.link(e);
      const double cap = l.up ? l.capacity_gbps : 0.0;
      if (cap <= 0.0) {
        scale[e] = usage[e] > 0.0 ? 0.0 : 1.0;
        if (usage[e] > 0.0) any_overload = true;
        continue;
      }
      if (usage[e] > cap) {
        any_overload = true;
        const double hard = cap / usage[e];
        scale[e] = last ? hard : 0.5 * (1.0 + hard);
      } else {
        scale[e] = 1.0;
      }
    }
    for (PairState& st : states) {
      const auto& ts = tunnels.tunnels(st.pair.src, st.pair.dst);
      for (std::size_t a = 0; a < st.alive.size(); ++a) {
        double factor = 1.0;
        for (topo::EdgeId e : ts[st.alive[a]].links) {
          factor = std::min(factor, scale[e]);
        }
        if (factor >= 1.0) continue;
        for (std::size_t i = 0; i < st.flows->size(); ++i) {
          st.x[i * st.alive.size() + a] *= factor;
        }
      }
    }

    if (!last) {
      std::vector<double> residual(g.num_links(), 0.0);
      std::fill(usage.begin(), usage.end(), 0.0);
      for (const PairState& st : states) {
        const auto& ts = tunnels.tunnels(st.pair.src, st.pair.dst);
        for (std::size_t a = 0; a < st.alive.size(); ++a) {
          double tunnel_sum = 0.0;
          for (std::size_t i = 0; i < st.flows->size(); ++i) {
            tunnel_sum += st.x[i * st.alive.size() + a];
          }
          for (topo::EdgeId e : ts[st.alive[a]].links) {
            usage[e] += tunnel_sum;
          }
        }
      }
      for (topo::EdgeId e = 0; e < g.num_links(); ++e) {
        const topo::Link& l = g.link(e);
        residual[e] = (l.up ? l.capacity_gbps : 0.0) - usage[e];
      }
      for (PairState& st : states) {
        const auto& ts = tunnels.tunnels(st.pair.src, st.pair.dst);
        double unallocated = 0.0;
        std::vector<double> per_flow(st.flows->size());
        for (std::size_t i = 0; i < st.flows->size(); ++i) {
          double got = 0.0;
          for (std::size_t a = 0; a < st.alive.size(); ++a) {
            got += st.x[i * st.alive.size() + a];
          }
          per_flow[i] = std::max(0.0, (*st.flows)[i].demand_gbps - got);
          unallocated += per_flow[i];
        }
        if (unallocated <= 1e-12) continue;
        for (std::size_t a = 0; a < st.alive.size() && unallocated > 1e-12;
             ++a) {
          double room = std::numeric_limits<double>::infinity();
          for (topo::EdgeId e : ts[st.alive[a]].links) {
            room = std::min(room, residual[e]);
          }
          if (room <= 1e-12) continue;
          const double grant = std::min(room, unallocated);
          const double frac = grant / unallocated;
          for (std::size_t i = 0; i < st.flows->size(); ++i) {
            const double add = per_flow[i] * frac;
            st.x[i * st.alive.size() + a] += add;
            per_flow[i] -= add;
          }
          for (topo::EdgeId e : ts[st.alive[a]].links) {
            residual[e] -= grant;
          }
          unallocated -= grant;
        }
      }
    } else if (!any_overload) {
      break;
    }
  }

  std::size_t dense_elems = 0;
  for (const PairState& st : states) {
    const auto& ts = tunnels.tunnels(st.pair.src, st.pair.dst);
    auto& alloc = sol.pairs[st.pair];
    alloc.tunnel_alloc.assign(ts.size(), 0.0);
    dense_elems += st.x.size();
    for (std::size_t i = 0; i < st.flows->size(); ++i) {
      for (std::size_t a = 0; a < st.alive.size(); ++a) {
        const double v = st.x[i * st.alive.size() + a];
        alloc.tunnel_alloc[st.alive[a]] += v;
        sol.satisfied_gbps += v;
      }
    }
  }
  sol.iterations = te::TealSolver::kAdmmIterations;
  sol.est_memory_bytes = dense_elems * sizeof(double) * 2;
  return sol;
}

/// Bitwise comparison of two solutions' allocations (not the timings).
void expect_bitwise_equal(const te::TeSolution& a, const te::TeSolution& b,
                          const std::string& label) {
  ASSERT_TRUE(bits_equal(a.satisfied_gbps, b.satisfied_gbps))
      << label << ": satisfied " << a.satisfied_gbps << " vs "
      << b.satisfied_gbps;
  ASSERT_EQ(a.pairs.size(), b.pairs.size()) << label;
  for (const auto& [pair, alloc] : a.pairs) {
    auto it = b.pairs.find(pair);
    ASSERT_NE(it, b.pairs.end()) << label;
    ASSERT_EQ(alloc.tunnel_alloc.size(), it->second.tunnel_alloc.size())
        << label;
    for (std::size_t t = 0; t < alloc.tunnel_alloc.size(); ++t) {
      ASSERT_TRUE(
          bits_equal(alloc.tunnel_alloc[t], it->second.tunnel_alloc[t]))
          << label << ": pair (" << pair.src << "," << pair.dst
          << ") tunnel " << t;
    }
    ASSERT_EQ(alloc.flow_tunnel, it->second.flow_tunnel) << label;
  }
}

TEST(TealRepairParity, BitIdenticalAcrossSeedsAndLoads) {
  for (std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
    // High load forces real projection work; low load exercises the
    // refill/early-exit path.
    for (double load : {0.15, 0.9}) {
      auto s = testing::make_scenario(8, 14, 3, load, seed);
      const te::TeProblem problem = s->problem();
      const te::TeSolution ref = teal_reference(problem, {});
      te::TealSolver solver;
      const te::TeSolution got = solver.solve(problem);
      expect_bitwise_equal(ref, got,
                           "seed=" + std::to_string(seed) +
                               " load=" + std::to_string(load));
    }
  }
}

TEST(TealRepairParity, BitIdenticalWithDownLinks) {
  auto s = testing::make_scenario(8, 14, 3, 0.6, 11);
  const auto events = topo::inject_link_failures(s->graph, 2, 5);
  ASSERT_FALSE(events.empty());
  const te::TeProblem problem = s->problem();
  const te::TeSolution ref = teal_reference(problem, {});
  te::TealSolver solver;
  expect_bitwise_equal(ref, solver.solve(problem), "faulted");
}

TEST(TealRepairParity, ArenaReuseAcrossSolvesIsBitStable) {
  auto s1 = testing::make_scenario(7, 12, 3, 0.7, 3);
  auto s2 = testing::make_scenario(9, 16, 2, 0.4, 4);
  te::TealSolver solver;
  const te::TeSolution first = solver.solve(s1->problem());
  // Interleave a different instance, then re-solve the first: the reused
  // SoA arena must not leak state between problems.
  solver.solve(s2->problem());
  expect_bitwise_equal(first, solver.solve(s1->problem()), "arena reuse");
}

// ===========================================================================
// Part 2 — RepairKernel unit behaviour.
// ===========================================================================

TEST(RepairKernel, RejectsZeroIterations) {
  te::RepairKernel k;
  const std::vector<double> cap = {10.0};
  k.reset(cap);
  EXPECT_THROW(k.run(0), std::invalid_argument);
}

TEST(RepairKernel, RejectsPairWithoutTunnels) {
  te::RepairKernel k;
  const std::vector<double> cap = {10.0};
  k.reset(cap);
  const double d = 5.0;
  k.begin_pair({&d, 1});
  EXPECT_THROW(k.finish_pair(), std::logic_error);
}

TEST(RepairKernel, HardFinalProjectionYieldsFeasibility) {
  te::RepairKernel k;
  const std::vector<double> cap = {10.0, 10.0};
  k.reset(cap);
  const std::vector<double> demands = {30.0, 20.0};
  const std::vector<topo::EdgeId> t0 = {0};
  const std::vector<topo::EdgeId> t1 = {0, 1};
  const std::size_t p = k.begin_pair(demands);
  k.add_tunnel(t0);
  k.add_tunnel(t1);
  k.finish_pair();
  auto x = k.x(p);
  x[0] = 25.0;  // flow 0 -> tunnel 0 (overloads link 0)
  x[1] = 5.0;   // flow 0 -> tunnel 1
  x[2] = 15.0;  // flow 1 -> tunnel 0
  x[3] = 5.0;   // flow 1 -> tunnel 1
  const te::RepairStats stats = k.run(4);
  EXPECT_TRUE(stats.feasible);
  EXPECT_LE(stats.max_utilization, 1.0 + 1e-9);
  // Link 0 carries both tunnels; its usage must have been projected down
  // to capacity (it started at 50 on 10).
  const auto xr = k.x(p);
  const double link0 = xr[0] + xr[1] + xr[2] + xr[3];
  EXPECT_LE(link0, cap[0] * (1.0 + 1e-9));
  EXPECT_GT(stats.allocated_gbps, 0.0);
}

TEST(RepairKernel, DownLinkZeroesItsTunnel) {
  te::RepairKernel k;
  const std::vector<double> cap = {0.0, 10.0};  // link 0 down
  k.reset(cap);
  const std::vector<double> demands = {8.0};
  const std::vector<topo::EdgeId> dead = {0};
  const std::vector<topo::EdgeId> live = {1};
  const std::size_t p = k.begin_pair(demands);
  k.add_tunnel(dead);
  k.add_tunnel(live);
  k.finish_pair();
  auto x = k.x(p);
  x[0] = 4.0;
  x[1] = 4.0;
  const te::RepairStats stats = k.run(3);
  EXPECT_TRUE(stats.feasible);
  const auto xr = k.x(p);
  EXPECT_EQ(xr[0], 0.0);
  // The refill re-routes the freed demand onto the live tunnel.
  EXPECT_NEAR(xr[1], 8.0, 1e-9);
}

TEST(RepairKernel, RefillRecoversCapacityFreedByProjection) {
  // Pair A monopolizes a shared link; pair B has a private alternative
  // the initial proposal ignored. After projection + refill, B's demand
  // lands on its private tunnel.
  te::RepairKernel k;
  const std::vector<double> cap = {10.0, 50.0};
  k.reset(cap);
  const std::vector<double> da = {10.0};
  const std::vector<topo::EdgeId> shared = {0};
  const std::size_t pa = k.begin_pair(da);
  k.add_tunnel(shared);
  k.finish_pair();
  const std::vector<double> db = {20.0};
  const std::vector<topo::EdgeId> priv = {1};
  const std::size_t pb = k.begin_pair(db);
  k.add_tunnel(shared);
  k.add_tunnel(priv);
  k.finish_pair();
  k.x(pa)[0] = 10.0;
  k.x(pb)[0] = 20.0;  // all of B initially on the shared (overloaded) link
  k.x(pb)[1] = 0.0;
  // Soft projection converges geometrically.
  const te::RepairStats stats = k.run(16);
  EXPECT_TRUE(stats.feasible);
  // Projection alone would scale the shared link down to its 10 Gbps and
  // strand B's excess; the refill walks B's unallocated demand onto the
  // private tunnel, converging to ~23.3 total (A and B's shared tunnel
  // split link 0 proportionally — the repair is a heuristic, not an LP).
  EXPECT_GT(stats.allocated_gbps, 20.0);
  EXPECT_GT(k.x(pb)[1], 12.0);
}

// ===========================================================================
// Part 3 — the learned fast path through MegaTeSolver's quality gate.
// ===========================================================================

/// Scales every flow of `base` by `factor` (a distribution shift when
/// far from 1), preserving identities and QoS.
tm::TrafficMatrix scale_matrix(const tm::TrafficMatrix& base, double factor) {
  tm::TrafficMatrix out;
  for (const auto& [pair, flows] : base.pairs()) {
    for (tm::EndpointDemand d : flows) {
      d.demand_gbps *= factor;
      out.add(d);
    }
  }
  return out;
}

/// Per-flow jitter evolution (independent of container order).
tm::TrafficMatrix jitter_matrix(const tm::TrafficMatrix& base,
                                std::uint64_t seed, double spread) {
  tm::TrafficMatrix out;
  for (const auto& [pair, flows] : base.pairs()) {
    for (std::size_t i = 0; i < flows.size(); ++i) {
      tm::EndpointDemand d = flows[i];
      util::Rng rng(seed ^ (d.src * 0x9E3779B97F4A7C15ULL) ^
                    (d.dst * 0xBF58476D1CE4E5B9ULL) ^ i);
      d.demand_gbps *= 1.0 - spread + 2.0 * spread * rng.uniform();
      out.add(d);
    }
  }
  return out;
}

TEST(LearnedGate, UntrainedFallsBackToExact) {
  auto s = testing::make_scenario(6, 10, 3, 0.3, 17);
  te::MegaTeSolver solver;
  te::SolveContext ctx;
  ctx.learned = true;
  const te::SolveReport report = solver.solve(s->problem(), ctx);
  EXPECT_TRUE(report.learned.attempted);
  EXPECT_FALSE(report.learned.accepted);
  EXPECT_EQ(report.learned.fallback_reason, "untrained");
  // The fallback IS the exact solve.
  te::MegaTeSolver exact;
  const te::SolveReport ref = exact.solve(s->problem(), {});
  EXPECT_DOUBLE_EQ(report.solution.satisfied_gbps,
                   ref.solution.satisfied_gbps);
  // ... and it trained the allocator.
  EXPECT_EQ(report.learned.observations, 1u);
}

TEST(LearnedGate, WarmModelGetsAccepted) {
  auto s = testing::make_scenario(6, 10, 3, 0.3, 21);
  te::MegaTeSolver solver;
  te::SolveContext ctx;
  ctx.learned = true;
  // Warm-up: the first kMinObservations learned calls fall back + train.
  te::SolveReport r1 = solver.solve(s->problem(), ctx);
  EXPECT_EQ(r1.learned.fallback_reason, "untrained");
  te::SolveReport r2 = solver.solve(s->problem(), ctx);
  EXPECT_EQ(r2.learned.fallback_reason, "untrained");
  const te::SolveReport r3 = solver.solve(s->problem(), ctx);
  EXPECT_TRUE(r3.learned.accepted) << r3.learned.fallback_reason;
  EXPECT_EQ(r3.solution.solver_name, "MegaTE-learned");
  // Accepted solution satisfies the gate's own quality bar.
  EXPECT_GE(r3.solution.satisfied_gbps + 1e-9,
            te::LearnedAllocator::kAcceptFraction *
                r3.learned.exact_estimate_gbps);
  // And it is fully audited: checker-clean with flow assignments.
  te::CheckOptions copts;
  copts.require_flow_assignment = true;
  EXPECT_TRUE(te::check_solution(s->problem(), r3.solution, copts).ok);
}

TEST(LearnedGate, DistributionShiftTriggersFallbackAndRecovers) {
  auto s = testing::make_scenario(6, 10, 3, 0.25, 29);
  te::MegaTeSolver solver;
  te::SolveContext ctx;
  ctx.learned = true;
  for (int i = 0; i < 3; ++i) solver.solve(s->problem(), ctx);

  // Flash crowd: demands x8 — the flow predictor's MAPE explodes and the
  // drift guard must refuse the learned path *before* shipping a stale
  // allocation.
  const tm::TrafficMatrix shifted = scale_matrix(s->traffic, 8.0);
  te::TeProblem shift_problem = s->problem();
  shift_problem.traffic = &shifted;
  const te::SolveReport shift = solver.solve(shift_problem, ctx);
  EXPECT_FALSE(shift.learned.accepted);
  EXPECT_EQ(shift.learned.fallback_reason, "drift");
  // Recovery of exactness: the returned solution equals the exact solve.
  te::MegaTeSolver exact;
  const te::SolveReport ref = exact.solve(shift_problem, {});
  EXPECT_DOUBLE_EQ(shift.solution.satisfied_gbps,
                   ref.solution.satisfied_gbps);
}

/// Assigned flows of `sol` on tunnels with more than `max_sr_hops` links.
std::size_t flows_over_budget(const te::TeProblem& p,
                              const te::TeSolution& sol,
                              std::uint32_t max_sr_hops) {
  std::size_t over = 0;
  for (const auto& [pair, alloc] : sol.pairs) {
    const auto& ts = p.tunnels->tunnels(pair.src, pair.dst);
    for (const std::int32_t t : alloc.flow_tunnel) {
      if (t >= 0 && ts[static_cast<std::size_t>(t)].hops() > max_sr_hops) {
        ++over;
      }
    }
  }
  return over;
}

TEST(LearnedGate, HopBudgetIsHonoredByLearnedSolutions) {
  auto s = testing::make_scenario(8, 14, 3, 0.3, 31);
  testing::rebuild_tunnels_under_budget(*s, 3);
  te::MegaTeSolver solver;
  te::SolveContext ctx;
  ctx.learned = true;
  te::SolveReport last;
  for (int i = 0; i < 4; ++i) last = solver.solve(s->problem(), ctx);
  EXPECT_TRUE(last.learned.accepted) << last.learned.fallback_reason;
  EXPECT_GT(last.solution.satisfied_gbps, 0.0);
  EXPECT_EQ(flows_over_budget(s->problem(), last.solution, 3), 0u);
}

TEST(LearnedGate, DeterministicAcrossRunsAndThreadCounts) {
  for (std::size_t threads : {1UL, 4UL}) {
    auto run = [&](std::uint64_t seed) {
      auto s = testing::make_scenario(6, 10, 3, 0.3, 13);
      te::MegaTeOptions opts;
      opts.threads = threads;
      te::MegaTeSolver solver(opts);
      te::SolveContext ctx;
      ctx.learned = true;
      std::vector<te::TeSolution> sols;
      tm::TrafficMatrix current = s->traffic;
      for (int i = 0; i < 5; ++i) {
        te::TeProblem p = s->problem();
        p.traffic = &current;
        sols.push_back(solver.solve(p, ctx).solution);
        current = jitter_matrix(current, seed + i, 0.1);
      }
      return sols;
    };
    const auto a = run(77);
    const auto b = run(77);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      expect_bitwise_equal(a[i], b[i],
                           "interval " + std::to_string(i) + " threads " +
                               std::to_string(threads));
    }
  }
}

// The differential bar: >= 100 seeded intervals of learned-mode solving on
// tunnels built under an SR hop budget, every returned solution audited
// through the checker (with flow assignments) and against the budget,
// accepted solutions compared against the exact solve of the same
// interval.
TEST(LearnedGate, DifferentialHundredIntervalsVsExact) {
  std::size_t intervals_total = 0;
  std::size_t accepted_total = 0;
  for (std::uint64_t seed : {3ULL, 41ULL, 59ULL, 67ULL}) {
    auto s = testing::make_scenario(6, 10, 3, 0.3, seed);
    testing::rebuild_tunnels_under_budget(*s, 4);
    te::MegaTeSolver solver;
    te::MegaTeSolver exact;
    te::SolveContext ctx;
    ctx.learned = true;
    tm::TrafficMatrix current = s->traffic;
    for (int i = 0; i < 26; ++i) {
      te::TeProblem p = s->problem();
      p.traffic = &current;
      const te::SolveReport learned = solver.solve(p, ctx);
      const te::SolveReport ref = exact.solve(p, {});
      ++intervals_total;

      // Audit EVERY returned solution, learned or fallback.
      te::CheckOptions copts;
      copts.require_flow_assignment = true;
      const te::CheckResult chk =
          te::check_solution(p, learned.solution, copts);
      ASSERT_TRUE(chk.ok) << "seed " << seed << " interval " << i << ": "
                          << (chk.violations.empty()
                                  ? "?"
                                  : chk.violations.front());
      ASSERT_EQ(flows_over_budget(p, learned.solution, 4), 0u)
          << "seed " << seed << " interval " << i;

      if (learned.learned.accepted) {
        ++accepted_total;
        // The gate's promise: within accept_fraction of the exact path
        // (compared against the true exact solve, not just the EWMA).
        EXPECT_GE(learned.solution.satisfied_gbps,
                  0.9 * ref.solution.satisfied_gbps)
            << "seed " << seed << " interval " << i;
      } else {
        // Fallbacks return the exact answer itself.
        EXPECT_DOUBLE_EQ(learned.solution.satisfied_gbps,
                         ref.solution.satisfied_gbps)
            << "seed " << seed << " interval " << i;
      }
      current = jitter_matrix(current, seed * 1000 + i, 0.15);
    }
  }
  ASSERT_GE(intervals_total, 100u);
  // The learned path must actually engage — a gate that always falls back
  // would pass the audits vacuously.
  EXPECT_GE(accepted_total, intervals_total / 2)
      << "learned path accepted only " << accepted_total << "/"
      << intervals_total;
}

/// FNV-1a over the bytes of 64-bit words and strings.
struct PlanDigest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (unsigned char c : s) add(static_cast<std::uint64_t>(c));
  }
};

/// Folds one learned-mode solve into `d`: the gate's decision and
/// fallback reason, the satisfied-demand bits, and every pair's
/// per-flow tunnel assignment and per-tunnel allocation bits, in sorted
/// pair order (independent of hash-map iteration order).
void fold_plan(PlanDigest& d, const te::SolveReport& r) {
  d.add(static_cast<std::uint64_t>(r.learned.accepted));
  d.add(r.learned.fallback_reason);
  d.add(r.solution.satisfied_gbps);
  std::vector<topo::SitePair> pairs;
  for (const auto& [pair, alloc] : r.solution.pairs) pairs.push_back(pair);
  std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  d.add(static_cast<std::uint64_t>(pairs.size()));
  for (const topo::SitePair& pair : pairs) {
    const te::PairAllocation& alloc = r.solution.pairs.at(pair);
    d.add(static_cast<std::uint64_t>(pair.src));
    d.add(static_cast<std::uint64_t>(pair.dst));
    d.add(static_cast<std::uint64_t>(alloc.flow_tunnel.size()));
    for (std::int32_t t : alloc.flow_tunnel) {
      d.add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(t)));
    }
    for (double v : alloc.tunnel_alloc) d.add(v);
  }
}

/// Digest of LearnedGate.PlanDigestIsPinned, recorded at the commit
/// before the repair kernel lost its thread-pool path and the learned
/// allocator its tunables. The bits assume IEEE doubles without fused
/// multiply-add contraction (the build is ISO C++, so GCC does not
/// contract).
constexpr std::uint64_t kPinnedLearnedDigest = 0x5c98d608e5c4f45dULL;

// 24 learned-mode intervals over two seeded scenarios, the second with an
// SR hop budget: the warm-up fallbacks ("untrained"), accepted learned
// plans, and one x8 flash crowd late in the second scenario, whose
// "drift" fallbacks last to the end. The digest moves when the learned
// lane's model, repair or gate changes its plans: one repair pass fewer,
// or an SGD step 0.1% larger, each change it. The kernel's own bits are
// pinned by TealRepairParity.
TEST(LearnedGate, PlanDigestIsPinned) {
  constexpr int kIntervals = 12;
  constexpr int kFlashCrowd = 9;  ///< interval of scenario 2 scaled x8
  PlanDigest digest;
  std::size_t intervals = 0;
  std::size_t accepted = 0;
  std::size_t drift = 0;
  for (const auto& [seed, hops] :
       {std::pair<std::uint64_t, std::uint32_t>{5, 0}, {37, 4}}) {
    // Enough flows and load that the quantized plans depend on the
    // repair's output, not only on the model's argmax tunnel.
    auto s = testing::make_scenario(7, 12, 6, 0.6, seed);
    testing::rebuild_tunnels_under_budget(*s, hops);
    te::MegaTeSolver solver;
    te::SolveContext ctx;
    ctx.learned = true;
    tm::TrafficMatrix current = s->traffic;
    for (int i = 0; i < kIntervals; ++i) {
      const bool crowd = hops > 0 && i == kFlashCrowd;
      const tm::TrafficMatrix traffic =
          crowd ? scale_matrix(current, 8.0) : current;
      te::TeProblem p = s->problem();
      p.traffic = &traffic;
      const te::SolveReport r = solver.solve(p, ctx);
      fold_plan(digest, r);
      ++intervals;
      if (r.learned.accepted) ++accepted;
      if (r.learned.fallback_reason == "drift") ++drift;
      current = jitter_matrix(current, seed * 100 + i, 0.1);
    }
  }
  ASSERT_GE(intervals, 20u);
  // The sequence must exercise both gate outcomes and the drift guard.
  EXPECT_GE(accepted, 12u);
  EXPECT_GE(drift, 1u);
  EXPECT_EQ(digest.h, kPinnedLearnedDigest)
      << std::hex << "got 0x" << digest.h << ", pinned 0x"
      << kPinnedLearnedDigest;
}

// ===========================================================================
// Part 4 — FlowPredictor satellites.
// ===========================================================================

/// Every pair's order-sensitive flow-list fingerprint.
std::unordered_map<topo::SitePair, tm::PairFingerprint, topo::SitePairHash>
fingerprint_pairs(const tm::TrafficMatrix& traffic) {
  std::unordered_map<topo::SitePair, tm::PairFingerprint, topo::SitePairHash>
      out;
  for (const auto& [pair, flows] : traffic.pairs()) {
    out.emplace(pair, tm::fingerprint_flows(flows));
  }
  return out;
}

TEST(FlowPredictorDeterminism, PredictIsByteEqualAcrossInsertionOrders) {
  // Same flow population, inserted in opposite orders: the two predictors
  // hold equal state in differently-ordered hash tables. predict() must
  // emit byte-identical matrices (order-sensitive per-pair fingerprints).
  std::vector<tm::EndpointDemand> flows;
  for (std::uint32_t i = 0; i < 64; ++i) {
    tm::EndpointDemand d;
    d.src = tm::make_endpoint(i % 5, i);
    d.dst = tm::make_endpoint((i + 1) % 5, i + 100);
    d.demand_gbps = 0.5 + 0.01 * i;
    d.qos = i % 3 == 0 ? tm::QosClass::kClass1 : tm::QosClass::kClass3;
    flows.push_back(d);
  }
  tm::TrafficMatrix forward;
  for (const auto& d : flows) forward.add(d);
  tm::TrafficMatrix backward;
  for (auto it = flows.rbegin(); it != flows.rend(); ++it) backward.add(*it);

  tm::FlowPredictor a(tm::PredictorKind::kEwma, 0.3);
  tm::FlowPredictor b(tm::PredictorKind::kEwma, 0.3);
  a.observe(forward);
  b.observe(backward);
  ASSERT_EQ(a.tracked_flows(), b.tracked_flows());

  const auto fa = fingerprint_pairs(a.predict());
  const auto fb = fingerprint_pairs(b.predict());
  ASSERT_EQ(fa.size(), fb.size());
  for (const auto& [pair, fp] : fa) {
    auto it = fb.find(pair);
    ASSERT_NE(it, fb.end());
    EXPECT_EQ(fp, it->second)
        << "pair (" << pair.src << "," << pair.dst << ")";
  }
  // And predict() itself is stable across repeated calls.
  const auto fa2 = fingerprint_pairs(a.predict());
  EXPECT_EQ(fa.size(), fa2.size());
  for (const auto& [pair, fp] : fa) EXPECT_EQ(fp, fa2.at(pair));
}

TEST(FlowPredictorEdgeCases, EwmaDecaysAndEventuallyDropsAbsentFlows) {
  const double alpha = 0.5;
  tm::FlowPredictor p(tm::PredictorKind::kEwma, alpha);
  tm::TrafficMatrix m;
  tm::EndpointDemand d;
  d.src = tm::make_endpoint(0, 1);
  d.dst = tm::make_endpoint(1, 2);
  d.demand_gbps = 8.0;
  m.add(d);
  p.observe(m);
  ASSERT_EQ(p.tracked_flows(), 1u);

  const tm::TrafficMatrix empty;
  double expected = 8.0;
  for (int n = 1; n <= 5; ++n) {
    p.observe(empty);
    expected *= 1.0 - alpha;
    ASSERT_EQ(p.tracked_flows(), 1u) << "period " << n;
    const auto fp = fingerprint_pairs(p.predict());
    ASSERT_EQ(fp.size(), 1u);
    EXPECT_NEAR(fp.begin()->second.total_gbps, expected, 1e-12)
        << "period " << n;
  }
  // Decay continues to the 1e-9 cutoff, at which point the flow is
  // erased rather than tracked forever.
  for (int n = 0; n < 40; ++n) p.observe(empty);
  EXPECT_EQ(p.tracked_flows(), 0u);
  EXPECT_EQ(p.predict().num_flows(), 0u);

  // kLastValue forgets immediately.
  tm::FlowPredictor last(tm::PredictorKind::kLastValue);
  last.observe(m);
  ASSERT_EQ(last.tracked_flows(), 1u);
  last.observe(empty);
  EXPECT_EQ(last.tracked_flows(), 0u);
}

TEST(FlowPredictorEdgeCases, MapeWithZeroOverlapIsZero) {
  tm::FlowPredictor p(tm::PredictorKind::kEwma, 0.3);
  tm::TrafficMatrix seen;
  tm::EndpointDemand d;
  d.src = tm::make_endpoint(0, 1);
  d.dst = tm::make_endpoint(1, 1);
  d.demand_gbps = 4.0;
  seen.add(d);
  p.observe(seen);

  // Entirely different flows: nothing matches -> 0, not NaN/throw.
  tm::TrafficMatrix other;
  d.src = tm::make_endpoint(2, 9);
  d.dst = tm::make_endpoint(3, 9);
  other.add(d);
  EXPECT_EQ(p.mape(other), 0.0);
  // Empty actual matrix: same.
  EXPECT_EQ(p.mape(tm::TrafficMatrix{}), 0.0);
  // Zero-demand flows are skipped, not divided by.
  tm::TrafficMatrix zero;
  d.src = tm::make_endpoint(0, 1);
  d.dst = tm::make_endpoint(1, 1);
  d.demand_gbps = 0.0;
  zero.add(d);
  EXPECT_EQ(p.mape(zero), 0.0);
}

TEST(FlowPredictorEdgeCases, QosClassSurvivesObservePredictRoundTrips) {
  tm::FlowPredictor p(tm::PredictorKind::kEwma, 0.4);
  tm::TrafficMatrix m;
  for (std::uint32_t i = 0; i < 9; ++i) {
    tm::EndpointDemand d;
    d.src = tm::make_endpoint(i % 3, i);
    d.dst = tm::make_endpoint((i + 1) % 3, i);
    d.demand_gbps = 1.0 + i;
    d.qos = static_cast<tm::QosClass>(1 + i % 3);
    m.add(d);
  }
  p.observe(m);
  p.observe(m);  // a second round trip must not disturb classes

  const tm::TrafficMatrix pred = p.predict();
  std::size_t checked = 0;
  for (const auto& [pair, flows] : pred.pairs()) {
    for (const tm::EndpointDemand& f : flows) {
      const std::uint32_t i = tm::endpoint_index(f.src);
      EXPECT_EQ(f.qos, static_cast<tm::QosClass>(1 + i % 3))
          << "flow " << i;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 9u);
}

// ===========================================================================
// Part 5 — training-loop concurrency (TSan target).
// ===========================================================================

TEST(LearnedConcurrency, ConcurrentObserveAndAllocate) {
  auto s = testing::make_scenario(6, 10, 2, 0.3, 47);
  const te::TeProblem problem = s->problem();
  te::MegaTeSolver exact;
  const te::TeSolution sol = exact.solve(problem, {}).solution;

  te::LearnedAllocator allocator;
  std::thread trainer([&] {
    for (int i = 0; i < 50; ++i) allocator.observe(problem, sol);
  });
  std::thread predictor([&] {
    for (int i = 0; i < 50; ++i) {
      const te::TeSolution got = allocator.allocate(problem);
      ASSERT_GE(got.satisfied_gbps, 0.0);
    }
  });
  std::thread reader([&] {
    double acc = 0.0;
    for (int i = 0; i < 50; ++i) {
      acc += allocator.exact_satisfied_fraction();
      acc += allocator.drift_mape(*problem.traffic);
      acc += static_cast<double>(allocator.observations());
      acc += allocator.theta()[0];
    }
    ASSERT_GE(acc, 0.0);
  });
  trainer.join();
  predictor.join();
  reader.join();
  EXPECT_EQ(allocator.observations(), 50u);
}

}  // namespace
}  // namespace megate

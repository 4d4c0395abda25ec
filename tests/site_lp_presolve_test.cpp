// Differential suite for the exact stage-1 presolve in
// te::solve_max_site_flow (DESIGN.md §16).
//
// The oracle is a test-local copy of the model builder as it was before
// the presolve existed: one row per live link, one demand row per pair
// and one column per usable tunnel, solved exactly with
// lp::SimplexSolver. The presolved path drops implied link rows and fixes
// pairs whose best tunnel crosses only such rows, so its LP differs; its
// objective must not. The suite sweeps seeds x loads x residual
// capacities x hop budgets x injected link failures and also checks that
// every returned allocation is feasible against the full (unreduced)
// constraint set.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "megate/lp/model.h"
#include "megate/lp/simplex.h"
#include "megate/obs/metrics.h"
#include "megate/te/megate_solver.h"
#include "megate/te/site_lp.h"
#include "megate/topo/failures.h"
#include "megate/util/rng.h"
#include "megate/util/thread_pool.h"
#include "test_helpers.h"

namespace megate::te {
namespace {

using Demands =
    std::unordered_map<topo::SitePair, double, topo::SitePairHash>;

double live_capacity(const topo::Graph& g, const std::vector<double>& caps,
                     topo::EdgeId e) {
  const topo::Link& l = g.link(e);
  if (!l.up) return 0.0;
  return caps.empty() ? l.capacity_gbps : caps[e];
}

bool usable(const topo::Graph& g, const std::vector<double>& caps,
            const topo::Tunnel& t, std::uint32_t max_sr_hops) {
  if (t.links.empty()) return false;
  if (max_sr_hops != 0 && t.links.size() > max_sr_hops) return false;
  for (topo::EdgeId e : t.links) {
    if (live_capacity(g, caps, e) <= 0.0) return false;
  }
  return true;
}

/// The MaxSiteFlow model without any presolve, solved exactly.
lp::Solution reference_solve(const topo::Graph& g,
                             const topo::TunnelSet& tunnels,
                             const Demands& demands,
                             const std::vector<double>& caps, double epsilon,
                             std::uint32_t max_sr_hops) {
  lp::Model model;
  std::vector<std::size_t> link_row(g.num_links(), ~std::size_t{0});
  for (topo::EdgeId e = 0; e < g.num_links(); ++e) {
    const double cap = live_capacity(g, caps, e);
    if (cap > 0.0) link_row[e] = model.add_constraint(cap);
  }
  for (const auto& [pair, demand] : demands) {
    if (demand <= 0.0) continue;
    const auto& ts = tunnels.tunnels(pair.src, pair.dst);
    std::vector<std::size_t> cols;
    for (std::size_t t = 0; t < ts.size(); ++t) {
      if (usable(g, caps, ts[t], max_sr_hops)) cols.push_back(t);
    }
    if (cols.empty()) continue;
    const std::size_t demand_row = model.add_constraint(demand);
    for (std::size_t t : cols) {
      const double coef = std::max(1e-4, 1.0 - epsilon * ts[t].weight);
      const std::size_t var = model.add_variable(coef);
      model.add_coefficient(demand_row, var, 1.0);
      for (topo::EdgeId e : ts[t].links) {
        model.add_coefficient(link_row[e], var, 1.0);
      }
    }
  }
  if (model.num_variables() == 0) {
    lp::Solution empty;
    empty.status = lp::Status::kOptimal;
    return empty;
  }
  return lp::SimplexSolver().solve(model);
}

/// First violated constraint of the *unreduced* model, or "".
std::string find_violation(const topo::Graph& g,
                           const topo::TunnelSet& tunnels,
                           const Demands& demands,
                           const std::vector<double>& caps,
                           std::uint32_t max_sr_hops,
                           const SiteLpResult& r) {
  std::ostringstream out;
  std::vector<double> load(g.num_links(), 0.0);
  for (const auto& [pair, alloc] : r.alloc) {
    const auto it = demands.find(pair);
    const auto& ts = tunnels.tunnels(pair.src, pair.dst);
    if (it == demands.end() || alloc.size() != ts.size()) {
      out << "pair " << pair.src << "->" << pair.dst << " not expected";
      return out.str();
    }
    double sum = 0.0;
    for (std::size_t t = 0; t < alloc.size(); ++t) {
      if (alloc[t] < 0.0) {
        out << "negative F on pair " << pair.src << "->" << pair.dst;
        return out.str();
      }
      if (alloc[t] > 0.0 && !usable(g, caps, ts[t], max_sr_hops)) {
        out << "flow on unusable tunnel " << t << " of " << pair.src << "->"
            << pair.dst;
        return out.str();
      }
      sum += alloc[t];
      for (topo::EdgeId e : ts[t].links) load[e] += alloc[t];
    }
    if (sum > it->second * (1.0 + 1e-9)) {
      out << "demand cap of " << pair.src << "->" << pair.dst << ": " << sum
          << " > " << it->second;
      return out.str();
    }
  }
  for (topo::EdgeId e = 0; e < g.num_links(); ++e) {
    const double cap = live_capacity(g, caps, e);
    if (load[e] > cap * (1.0 + 1e-9) + 1e-12) {
      out << "link " << e << " load " << load[e] << " > " << cap;
      return out.str();
    }
  }
  return {};
}

bool relative_equal(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max(1.0, std::abs(b));
}

struct Sweep {
  std::size_t cases = 0;
  std::size_t pairs_fixed = 0;
  std::size_t rows_dropped = 0;
  std::size_t cases_with_lp = 0;
  std::size_t cases_fully_presolved = 0;
};

// --- Exactness ---------------------------------------------------------------

TEST(SiteLpPresolve, MatchesUnreducedOptimumAcrossSweep) {
  Sweep sweep;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const double load : {0.1, 0.5, 1.5}) {
      for (const std::uint32_t failures : {0u, 3u}) {
        auto s = megate::testing::make_scenario(10, 18, 10, load, seed);
        // The scenario's tunnel build under a budget of 4 SR hops.
        topo::TunnelOptions topt = megate::testing::scenario_tunnel_options();
        topt.max_sr_hops = 4;
        const topo::TunnelSet budgeted = topo::build_tunnels(s->graph, topt);
        if (failures > 0) {
          topo::inject_link_failures(s->graph, failures, seed * 7 + 1);
        }
        const Demands demands = s->traffic.site_demands();
        // Residual capacities as a later QoS round sees them: each link
        // keeps a random share, some none at all.
        util::Rng rng(seed * 31 + failures);
        std::vector<double> residual(s->graph.num_links());
        for (topo::EdgeId e = 0; e < s->graph.num_links(); ++e) {
          const double u = rng.uniform();
          residual[e] = u < 0.1 ? 0.0 : s->graph.link(e).capacity_gbps * u;
        }
        for (const bool use_residual : {false, true}) {
          const std::vector<double> caps =
              use_residual ? residual : std::vector<double>{};
          for (const std::uint32_t hops : {0u, 4u}) {
            const double epsilon = seed % 2 == 0 ? 0.0 : 0.02;
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << " load " << load
                         << " failures " << failures << " residual "
                         << use_residual << " max_sr_hops " << hops);
            const topo::TunnelSet& tunnels =
                hops == 0 ? s->tunnels : budgeted;
            ASSERT_EQ(tunnels.max_sr_hops(), hops);
            SiteLpOptions opt;
            opt.backend = SiteLpOptions::Backend::kSimplex;
            const SiteLpResult got = solve_max_site_flow(
                s->graph, tunnels, demands, caps, epsilon, opt);
            const lp::Solution want = reference_solve(
                s->graph, tunnels, demands, caps, epsilon, hops);
            ASSERT_EQ(want.status, lp::Status::kOptimal);
            ASSERT_EQ(got.status, lp::Status::kOptimal);
            EXPECT_TRUE(relative_equal(got.objective, want.objective, 1e-9))
                << got.objective << " vs " << want.objective;
            EXPECT_TRUE(relative_equal(got.dual_bound, got.objective, 1e-12));
            EXPECT_EQ(find_violation(s->graph, tunnels, demands, caps, hops,
                                     got),
                      "");
            ++sweep.cases;
            sweep.pairs_fixed += got.pairs_fixed;
            sweep.rows_dropped += got.rows_dropped;
            if (got.num_variables > 0) ++sweep.cases_with_lp;
            if (got.num_variables == 0 && got.pairs_fixed > 0) {
              ++sweep.cases_fully_presolved;
            }
          }
        }
      }
    }
  }
  // The sweep must exercise both halves of the presolve and still leave
  // real LPs for the backend; otherwise it proves nothing.
  EXPECT_EQ(sweep.cases, 6u * 3 * 2 * 2 * 2);
  EXPECT_GT(sweep.pairs_fixed, 0u);
  EXPECT_GT(sweep.rows_dropped, 0u);
  EXPECT_GT(sweep.cases_with_lp, sweep.cases / 2);
  EXPECT_GT(sweep.cases_fully_presolved, 0u);
}

TEST(SiteLpPresolve, SolvesLightRoundOutright) {
  auto s = megate::testing::make_scenario(8, 14, 10, 0.15, 3);
  Demands demands = s->traffic.site_demands();
  // Scale so the whole matrix fits the smallest link: every link row is
  // implied, so every pair is fixed on its best tunnel and no LP runs.
  double min_cap = 1e300, total = 0.0;
  for (topo::EdgeId e = 0; e < s->graph.num_links(); ++e) {
    min_cap = std::min(min_cap, s->graph.link(e).capacity_gbps);
  }
  for (const auto& [pair, d] : demands) total += d;
  for (auto& [pair, d] : demands) d *= 0.5 * min_cap / total;

  const double epsilon = 0.02;
  const SiteLpResult got =
      solve_max_site_flow(s->graph, s->tunnels, demands, {}, epsilon);
  EXPECT_EQ(got.status, lp::Status::kOptimal);
  EXPECT_EQ(got.num_variables, 0u);
  EXPECT_EQ(got.num_constraints, 0u);
  EXPECT_EQ(got.iterations, 0u);
  EXPECT_FALSE(got.used_simplex);
  EXPECT_EQ(got.rows_dropped, s->graph.num_links());

  // The fixed part is the whole answer: each pair's full demand on its
  // highest-profit tunnel (lowest index on ties).
  double fixed = 0.0;
  std::size_t pairs = 0;
  for (const auto& [pair, d] : demands) {
    const auto& ts = s->tunnels.tunnels(pair.src, pair.dst);
    if (ts.empty()) continue;
    std::size_t best = 0;
    for (std::size_t t = 1; t < ts.size(); ++t) {
      if (std::max(1e-4, 1.0 - epsilon * ts[t].weight) >
          std::max(1e-4, 1.0 - epsilon * ts[best].weight)) {
        best = t;
      }
    }
    fixed += std::max(1e-4, 1.0 - epsilon * ts[best].weight) * d;
    ++pairs;
    const auto it = got.alloc.find(pair);
    ASSERT_NE(it, got.alloc.end());
    for (std::size_t t = 0; t < ts.size(); ++t) {
      EXPECT_EQ(it->second[t], t == best ? d : 0.0);
    }
  }
  EXPECT_EQ(got.pairs_fixed, pairs);
  EXPECT_TRUE(relative_equal(got.objective, fixed, 1e-12));
  EXPECT_TRUE(relative_equal(got.dual_bound, fixed, 1e-12));
  const lp::Solution want =
      reference_solve(s->graph, s->tunnels, demands, {}, epsilon, 0);
  EXPECT_TRUE(relative_equal(got.objective, want.objective, 1e-9));
}

// A tunnel that crosses a link twice puts 2 * F on it. The implied-row
// test must weight the pair's demand by that multiplicity, or it would
// drop a binding row and fix an infeasible allocation.
TEST(SiteLpPresolve, CountsRepeatedLinkMultiplicity) {
  topo::Graph g;
  const topo::NodeId a = g.add_node("a");
  const topo::NodeId b = g.add_node("b");
  const auto [ab, ba] = g.add_duplex_link(a, b, 10.0, 1.0);
  topo::TunnelSet tunnels;
  topo::Tunnel loop;
  loop.links = {ab, ba, ab};
  loop.weight = 1.0;
  tunnels.set_tunnels(a, b, {loop});
  const Demands demands = {{topo::SitePair{a, b}, 6.0}};

  SiteLpOptions opt;
  opt.backend = SiteLpOptions::Backend::kSimplex;
  const SiteLpResult got =
      solve_max_site_flow(g, tunnels, demands, {}, 0.0, opt);
  ASSERT_EQ(got.status, lp::Status::kOptimal);
  EXPECT_EQ(got.pairs_fixed, 0u);
  EXPECT_NEAR(got.objective, 5.0, 1e-9);  // 2F <= 10 binds before F <= 6
  const lp::Solution want = reference_solve(g, tunnels, demands, {}, 0.0, 0);
  EXPECT_TRUE(relative_equal(got.objective, want.objective, 1e-9));
  EXPECT_EQ(find_violation(g, tunnels, demands, {}, 0, got), "");
}

// --- Packing backend on the reduced LP ---------------------------------------

TEST(SiteLpPresolve, PackingStaysWithinApproximationBound) {
  constexpr double kEps = 0.05;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const double load : {0.1, 0.5, 1.5}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " load "
                                        << load);
      auto s = megate::testing::make_scenario(10, 18, 10, load, seed);
      const Demands demands = s->traffic.site_demands();
      SiteLpOptions opt;
      opt.backend = SiteLpOptions::Backend::kPacking;
      opt.packing_epsilon = kEps;
      const SiteLpResult got =
          solve_max_site_flow(s->graph, s->tunnels, demands, {}, 0.02, opt);
      const lp::Solution want =
          reference_solve(s->graph, s->tunnels, demands, {}, 0.02, 0);
      ASSERT_EQ(got.status, lp::Status::kOptimal);
      EXPECT_GE(got.objective, (1.0 - 3.0 * kEps) * want.objective);
      EXPECT_LE(got.objective, want.objective * (1.0 + 1e-9));
      EXPECT_GE(got.dual_bound, want.objective * (1.0 - 1e-9));
      EXPECT_EQ(find_violation(s->graph, s->tunnels, demands, {}, 0, got),
                "");
    }
  }
}

// --- Clustered buckets and the solver ----------------------------------------

bool bits_equal(const SiteLpResult& a, const SiteLpResult& b) {
  if (std::memcmp(&a.objective, &b.objective, sizeof(double)) != 0 ||
      a.alloc.size() != b.alloc.size() || a.iterations != b.iterations ||
      a.pairs_fixed != b.pairs_fixed || a.rows_dropped != b.rows_dropped ||
      a.num_variables != b.num_variables ||
      a.num_constraints != b.num_constraints) {
    return false;
  }
  for (const auto& [pair, va] : a.alloc) {
    const auto it = b.alloc.find(pair);
    if (it == b.alloc.end() || it->second.size() != va.size()) return false;
    if (!va.empty() && std::memcmp(va.data(), it->second.data(),
                                   va.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(SiteLpPresolve, ClusteredResultIndependentOfPoolSize) {
  auto s = megate::testing::make_scenario(16, 28, 20, 0.4, 5);
  const Demands demands = s->traffic.site_demands();
  // A small tableau cap sends the larger buckets to the packing backend,
  // so both backends run on pool workers.
  SiteLpOptions opt;
  opt.max_simplex_cells = 2000;
  std::vector<SiteLpResult> results;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool pool(threads);
    results.push_back(solve_max_site_flow_clustered(
        s->graph, s->tunnels, demands, {}, 0.02, 3, opt, pool));
  }
  ASSERT_EQ(results[0].status, lp::Status::kOptimal);
  EXPECT_GT(results[0].pairs_fixed, 0u);
  EXPECT_TRUE(bits_equal(results[0], results[1]));
  EXPECT_TRUE(bits_equal(results[0], results[2]));
  EXPECT_EQ(find_violation(s->graph, s->tunnels, demands, {}, 0, results[0]),
            "");
}

TEST(SiteLpPresolve, SolverCountsPresolveWork) {
  auto s = megate::testing::make_scenario(8, 14, 20, 0.1, 9);
  obs::MetricsRegistry reg;
  MegaTeOptions opt;
  opt.qos_sequencing = false;  // one round on full capacity
  opt.metrics = &reg;
  MegaTeSolver solver(opt);
  const SolveReport report = solver.solve(s->problem(), SolveContext{});
  ASSERT_TRUE(report.ok());

  const SiteLpResult direct = solve_max_site_flow(
      s->graph, s->tunnels, s->traffic.site_demands(), {},
      s->problem().epsilon, opt.site_lp);
  EXPECT_GT(direct.pairs_fixed, 0u);
  EXPECT_GT(direct.rows_dropped, 0u);
  EXPECT_EQ(reg.counter("te.stage1.presolve.pairs_fixed").value(),
            direct.pairs_fixed);
  EXPECT_EQ(reg.counter("te.stage1.presolve.rows_dropped").value(),
            direct.rows_dropped);
}

}  // namespace
}  // namespace megate::te

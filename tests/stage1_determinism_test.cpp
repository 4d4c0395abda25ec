// Determinism of the stage-1 packing solver (lp::PackingSolver).
//
//   1. Pinned digest: 100 seeded random packing LPs, each solved once,
//      folded into one digest over (status, iterations, x bits, objective
//      bits, last_dual_bound() bits). Any change to the float operations
//      of the Garg–Könemann loop changes the digest.
//   2. Solve twice: the same LPs solved twice, by the same solver object
//      and by a fresh one, agree bit for bit.
//   3. Incremental warm start: a multi-interval te::MegaTeSolver run on the
//      packing backend (cold + incremental solves over evolving traffic)
//      gives bitwise-equal TeSolutions on two solvers with different
//      stage-2 thread counts. The stage-2 memo keys on bitwise F_{k,t}
//      hashes, so it stays coherent only while stage 1 is deterministic.
//   4. Chaos: the chaos-run fingerprint with stage 1 on the packing
//      backend repeats across runs.
//
// Why bits and not "close": see DESIGN.md §12.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "megate/fault/chaos.h"
#include "megate/lp/model.h"
#include "megate/lp/packing.h"
#include "megate/te/megate_solver.h"
#include "megate/tm/traffic.h"
#include "megate/util/rng.h"
#include "test_helpers.h"

namespace megate {
namespace {

// --- 1-2. Random-LP sweep --------------------------------------------------

/// Bitwise double equality: distinguishes -0.0 from 0.0 and is exact —
/// "close" is not good enough when downstream caches key on these bits.
bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// One random packing LP of the sweep. Degenerate features are mixed in:
/// zero-capacity rows, non-positive profits, single-entry columns and
/// duplicate coefficients.
struct CaseConfig {
  std::uint64_t seed = 0;
  int rows = 0;
  int cols = 0;
  int max_entries = 0;    ///< nonzeros per column, 1..max
  double epsilon = 0.1;
  bool zero_cap_row = false;   ///< include a 0-rhs row some columns touch
  bool neg_profit_cols = false;  ///< sprinkle non-positive-profit columns
};

CaseConfig random_case(std::uint64_t seed) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 23);
  CaseConfig c;
  c.seed = seed;
  c.rows = 2 + static_cast<int>(rng.uniform_int(0, 38));
  c.cols = 1 + static_cast<int>(rng.uniform_int(0, 299));
  c.max_entries = 1 + static_cast<int>(rng.uniform_int(0, 4));
  const double eps_grid[] = {0.05, 0.07, 0.1, 0.2, 0.3};
  c.epsilon = eps_grid[rng.uniform_int(0, 4)];
  c.zero_cap_row = rng.uniform() < 0.25;
  c.neg_profit_cols = rng.uniform() < 0.25;
  return c;
}

lp::Model build_model(const CaseConfig& c) {
  util::Rng rng(c.seed * 1000003ULL + 7);
  lp::Model m;
  std::vector<std::size_t> rows;
  for (int i = 0; i < c.rows; ++i) {
    rows.push_back(m.add_constraint(rng.uniform(1.0, 80.0)));
  }
  std::size_t dead_row = ~std::size_t{0};
  if (c.zero_cap_row) dead_row = m.add_constraint(0.0);
  for (int j = 0; j < c.cols; ++j) {
    double profit = rng.uniform(0.2, 3.0);
    if (c.neg_profit_cols && rng.uniform() < 0.15) {
      profit = -profit;  // skipped by the solver, pins x_j = 0
    }
    const auto x = m.add_variable(profit);
    const int k =
        1 + static_cast<int>(rng.uniform_int(0, c.max_entries - 1));
    for (int t = 0; t < k; ++t) {
      // Duplicates accumulate in the model, so this also covers the
      // dedup path.
      m.add_coefficient(rows[rng.uniform_int(0, rows.size() - 1)], x,
                        rng.uniform(0.2, 2.0));
    }
    if (dead_row != ~std::size_t{0} && rng.uniform() < 0.1) {
      m.add_coefficient(dead_row, x, 1.0);  // column becomes dead
    }
  }
  return m;
}

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

/// Folds one solve into `d`: status, iterations, every x bit pattern, the
/// objective and the dual bound.
void fold(Digest& d, const lp::Solution& s, double dual_bound) {
  d.add(static_cast<std::uint64_t>(s.status));
  d.add(static_cast<std::uint64_t>(s.iterations));
  d.add(static_cast<std::uint64_t>(s.x.size()));
  for (double v : s.x) d.add(v);
  d.add(s.objective);
  d.add(dual_bound);
}

/// Digest of the 100-seed sweep, recorded from
/// lp::PackingSolver::solve_reference at commit ab2ae5e — the serial loop
/// that solve() now is — before that function was removed. The batched
/// solve() of that commit gives the same value. The bits assume IEEE
/// doubles without fused multiply-add contraction (the build is ISO C++,
/// so GCC does not contract).
constexpr std::uint64_t kPinnedDigest = 0xeca820ce7f896580ULL;

TEST(Stage1Determinism, PinnedDigestAcross100Seeds) {
  Digest all;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const CaseConfig c = random_case(seed);
    const lp::Model m = build_model(c);
    lp::PackingOptions opt;
    opt.epsilon = c.epsilon;
    lp::PackingSolver solver(opt);
    const lp::Solution s = solver.solve(m);
    fold(all, s, solver.last_dual_bound());
  }
  EXPECT_EQ(all.h, kPinnedDigest)
      << std::hex << "got 0x" << all.h << ", pinned 0x" << kPinnedDigest;
}

/// First bitwise difference between two solves, or nullopt when equal.
std::optional<std::string> diff_solutions(const lp::Solution& a, double a_dual,
                                          const lp::Solution& b,
                                          double b_dual) {
  if (a.status != b.status) {
    return std::string("status ") + lp::to_string(b.status) + " vs " +
           lp::to_string(a.status);
  }
  if (a.iterations != b.iterations) {
    return "iterations " + std::to_string(b.iterations) + " vs " +
           std::to_string(a.iterations);
  }
  if (!bits_equal(a.objective, b.objective)) return "objective bits";
  if (!bits_equal(a_dual, b_dual)) return "dual bound bits";
  if (a.x.size() != b.x.size()) return "x size";
  for (std::size_t j = 0; j < a.x.size(); ++j) {
    if (!bits_equal(a.x[j], b.x[j])) return "x[" + std::to_string(j) + "]";
  }
  return std::nullopt;
}

TEST(Stage1Determinism, SolveTwiceBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const CaseConfig c = random_case(seed);
    const lp::Model m = build_model(c);
    lp::PackingOptions opt;
    opt.epsilon = c.epsilon;
    lp::PackingSolver solver(opt);
    const lp::Solution first = solver.solve(m);
    const double first_dual = solver.last_dual_bound();
    // Same object again (no state may leak between solves), then a fresh
    // solver.
    const lp::Solution again = solver.solve(m);
    const double again_dual = solver.last_dual_bound();
    lp::PackingSolver fresh(opt);
    const lp::Solution other = fresh.solve(m);
    for (const auto& d :
         {diff_solutions(first, first_dual, again, again_dual),
          diff_solutions(first, first_dual, other, fresh.last_dual_bound())}) {
      ASSERT_FALSE(d.has_value()) << "seed " << seed << ": " << *d;
    }
  }
}

// --- 3. te::MegaTeSolver warm-start determinism ----------------------------

/// Evolves a traffic matrix by one interval (seeded per flow, independent
/// of container iteration order) — same idiom as incremental_test.cpp.
tm::TrafficMatrix evolve_traffic(const tm::TrafficMatrix& prev, double churn,
                                 std::uint64_t seed) {
  tm::TrafficMatrix out;
  for (const auto& [pair, flows] : prev.pairs()) {
    for (std::size_t i = 0; i < flows.size(); ++i) {
      tm::EndpointDemand d = flows[i];
      util::Rng rng(seed ^ (d.src * 0x9E3779B97F4A7C15ULL) ^
                    (d.dst * 0xBF58476D1CE4E5B9ULL) ^ i);
      if (rng.uniform() < churn) {
        d.demand_gbps *= 0.5 + rng.uniform();
      }
      out.add(d);
    }
  }
  return out;
}

std::optional<std::string> diff_te_solutions(const te::TeSolution& a,
                                             const te::TeSolution& b) {
  if (!bits_equal(a.satisfied_gbps, b.satisfied_gbps)) {
    return "satisfied_gbps " + std::to_string(b.satisfied_gbps) + " vs " +
           std::to_string(a.satisfied_gbps);
  }
  if (a.pairs.size() != b.pairs.size()) {
    return "pair count " + std::to_string(b.pairs.size()) + " vs " +
           std::to_string(a.pairs.size());
  }
  for (const auto& [pair, alloc] : a.pairs) {
    const auto it = b.pairs.find(pair);
    if (it == b.pairs.end()) {
      return "pair (" + std::to_string(pair.src) + "," +
             std::to_string(pair.dst) + ") missing";
    }
    if (alloc.tunnel_alloc.size() != it->second.tunnel_alloc.size()) {
      return "tunnel_alloc size mismatch";
    }
    for (std::size_t t = 0; t < alloc.tunnel_alloc.size(); ++t) {
      if (!bits_equal(alloc.tunnel_alloc[t], it->second.tunnel_alloc[t])) {
        return "F_{k,t} bits differ";
      }
    }
    if (alloc.flow_tunnel != it->second.flow_tunnel) {
      return "flow_tunnel assignment mismatch";
    }
  }
  return std::nullopt;
}

TEST(Stage1Determinism, IncrementalWarmStartRepeatsBitwise) {
  // Cold solve + incremental resolves over evolving traffic, stage 1 on
  // the packing backend: two solvers (1 and 8 stage-2 threads) must agree
  // bitwise on every interval's full solution, including the F_{k,t}-keyed
  // stage-2 memo path of the incremental solves.
  auto s = testing::make_scenario(12, 20, 3, 0.3, 7);

  te::MegaTeOptions serial_opt;
  serial_opt.threads = 1;
  serial_opt.site_lp.backend = te::SiteLpOptions::Backend::kPacking;
  te::MegaTeSolver serial_solver(serial_opt);

  te::MegaTeOptions par_opt = serial_opt;
  par_opt.threads = 8;
  te::MegaTeSolver par_solver(par_opt);

  tm::TrafficMatrix current = s->traffic;
  for (std::size_t interval = 0; interval < 4; ++interval) {
    if (interval > 0) {
      current = evolve_traffic(current, 0.15, 1000003ULL * interval + 5);
    }
    te::TeProblem problem = s->problem();
    problem.traffic = &current;
    te::SolveContext ctx;
    ctx.incremental = interval > 0;
    const te::SolveReport a = serial_solver.solve(problem, ctx);
    const te::SolveReport b = par_solver.solve(problem, ctx);
    const auto d = diff_te_solutions(a.solution, b.solution);
    EXPECT_FALSE(d.has_value())
        << "interval " << interval << ": " << *d;
    if (d) break;
  }
}

// --- 4. Chaos fingerprint --------------------------------------------------

fault::ChaosOptions chaos_base() {
  fault::ChaosOptions o;
  o.sites = 8;
  o.duplex_links = 12;
  o.endpoints_per_site = 2;
  o.intervals = 8;
  o.interval_s = 15.0;
  o.poll_interval_s = 4.0;
  o.kv_shards = 2;
  o.plan.seed = 21;
  o.plan.horizon_s = 0.0;  // auto-size to intervals * interval_s
  o.plan.quiet_tail_s = 45.0;
  o.plan.shard_crashes = 2;
  o.plan.link_failures = 1;
  o.plan.pull_drop_windows = 1;
  o.plan.stale_windows = 1;
  // Force stage 1 onto the packing solver (small chaos topologies would
  // otherwise auto-pick the simplex and never run it).
  o.site_lp.backend = te::SiteLpOptions::Backend::kPacking;
  return o;
}

TEST(Stage1Determinism, ChaosFingerprintRepeatsBitwise) {
  const fault::ChaosReport a = fault::run_chaos(chaos_base());
  EXPECT_TRUE(a.ok()) << (a.violations.empty() ? "did not converge"
                                               : a.violations.front());
  const fault::ChaosReport again = fault::run_chaos(chaos_base());
  EXPECT_EQ(a.fingerprint, again.fingerprint);
}

}  // namespace
}  // namespace megate

// Differential suite for lp::SimplexSolver's sparse tableau: against the
// textbook dense tableau, kept here as the oracle, every solve must
// return bitwise-equal status, iterations and x. The sparse solver picks
// the same pivots only if it reproduces every entry's arithmetic, finds
// every nonzero of the pivot column, visits those rows in ascending order
// and prices over the same objective row — so any slip in its row/column
// bookkeeping shows up here as a different pivot.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "megate/lp/model.h"
#include "megate/lp/simplex.h"
#include "megate/te/megate_solver.h"
#include "megate/tm/endpoints.h"
#include "megate/tm/traffic.h"
#include "megate/topo/generators.h"
#include "megate/topo/tunnels.h"
#include "megate/util/rng.h"

// --- Capturing the models the library solves --------------------------------
//
// The test binary links with --wrap on SimplexSolver::solve (see
// tests/CMakeLists.txt), so every call, the TE layer's included, lands in
// wrap_simplex_solve below, which records the model while a capture is
// open and then runs the real solver. A free function with the member's
// parameters (this first) has the member's calling convention.

namespace {
std::mutex g_capture_mu;
std::vector<megate::lp::Model>* g_capture = nullptr;
}  // namespace

megate::lp::Solution real_simplex_solve(const megate::lp::SimplexSolver* self,
                                        const megate::lp::Model& model)
    __asm__("__real__ZNK6megate2lp13SimplexSolver5solveERKNS0_5ModelE");
megate::lp::Solution wrap_simplex_solve(const megate::lp::SimplexSolver* self,
                                        const megate::lp::Model& model)
    __asm__("__wrap__ZNK6megate2lp13SimplexSolver5solveERKNS0_5ModelE");

megate::lp::Solution wrap_simplex_solve(const megate::lp::SimplexSolver* self,
                                        const megate::lp::Model& model) {
  {
    std::lock_guard<std::mutex> lock(g_capture_mu);
    if (g_capture != nullptr) g_capture->push_back(model);
  }
  return real_simplex_solve(self, model);
}

namespace megate::lp {
namespace {

/// What the oracle saw on its way, so a test can show it reached the
/// rule it is about.
struct DenseStats {
  std::size_t basis_ties = 0;    ///< ratio ties the basis index decided
  std::size_t bland_pivots = 0;  ///< pivots priced by Bland's rule
};

/// The dense tableau simplex: (m+1) x (n+m+1) doubles, every pivot sweeps
/// whole rows. `stats` only counts; it changes no choice.
Solution dense_simplex(const Model& model, DenseStats* stats = nullptr) {
  constexpr double kTolerance = 1e-9;
  Solution sol;
  const std::size_t n = model.num_variables();
  const std::size_t m = model.num_constraints();
  sol.x.assign(n, 0.0);
  if (n == 0) {
    sol.status = Status::kOptimal;
    return sol;
  }

  const std::size_t width = n + m + 1;
  std::vector<double> tab((m + 1) * width, 0.0);
  auto at = [&](std::size_t r, std::size_t c) -> double& {
    return tab[r * width + c];
  };

  for (std::size_t j = 0; j < n; ++j) {
    for (const Entry& e : model.column(j)) at(e.row, j) += e.coef;
  }
  for (std::size_t i = 0; i < m; ++i) {
    at(i, n + i) = 1.0;
    at(i, n + m) = model.rhs(i);
  }
  for (std::size_t j = 0; j < n; ++j) {
    at(m, j) = -model.objective_coef(j);
  }

  std::vector<std::size_t> basis(m);
  for (std::size_t i = 0; i < m; ++i) basis[i] = n + i;

  const double tol = kTolerance;
  const std::size_t max_iter = 50 * (m + n);
  const std::size_t bland_after = 2 * (m + n);

  for (std::size_t iter = 0; iter < max_iter; ++iter) {
    std::size_t pivot_col = width;
    if (iter < bland_after) {
      double best = -tol;
      for (std::size_t j = 0; j < n + m; ++j) {
        if (at(m, j) < best) {
          best = at(m, j);
          pivot_col = j;
        }
      }
    } else {
      for (std::size_t j = 0; j < n + m; ++j) {
        if (at(m, j) < -tol) {
          pivot_col = j;
          break;
        }
      }
      if (stats != nullptr && pivot_col != width) ++stats->bland_pivots;
    }
    if (pivot_col == width) {
      sol.status = Status::kOptimal;
      sol.iterations = iter;
      break;
    }

    std::size_t pivot_row = m;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m; ++i) {
      const double a = at(i, pivot_col);
      if (a <= tol) continue;
      const double ratio = at(i, n + m) / a;
      if (ratio < best_ratio - tol ||
          (ratio < best_ratio + tol && pivot_row != m &&
           basis[i] < basis[pivot_row])) {
        if (stats != nullptr && !(ratio < best_ratio - tol)) {
          ++stats->basis_ties;
        }
        best_ratio = ratio;
        pivot_row = i;
      }
    }
    if (pivot_row == m) {
      sol.status = Status::kUnbounded;
      sol.iterations = iter;
      return sol;
    }

    const double pv = at(pivot_row, pivot_col);
    for (std::size_t c = 0; c < width; ++c) at(pivot_row, c) /= pv;
    for (std::size_t r = 0; r <= m; ++r) {
      if (r == pivot_row) continue;
      const double factor = at(r, pivot_col);
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c < width; ++c) {
        at(r, c) -= factor * at(pivot_row, c);
      }
      at(r, pivot_col) = 0.0;
    }
    basis[pivot_row] = pivot_col;
    sol.iterations = iter + 1;
  }

  if (sol.status != Status::kOptimal) sol.status = Status::kIterLimit;

  for (std::size_t i = 0; i < m; ++i) {
    if (basis[i] < n) sol.x[basis[i]] = std::max(0.0, at(i, n + m));
  }
  sol.objective = model.objective_value(sol.x);
  return sol;
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// First bitwise difference of the sparse solve from the oracle's.
std::optional<std::string> diff(const Solution& want, const Solution& got) {
  if (want.status != got.status) {
    return std::string("status ") + to_string(got.status) + " vs " +
           to_string(want.status);
  }
  if (want.iterations != got.iterations) {
    return "iterations " + std::to_string(got.iterations) + " vs " +
           std::to_string(want.iterations);
  }
  if (want.x.size() != got.x.size()) return "x size";
  for (std::size_t j = 0; j < want.x.size(); ++j) {
    if (!bits_equal(want.x[j], got.x[j])) return "x[" + std::to_string(j) + "]";
  }
  if (!bits_equal(want.objective, got.objective)) return "objective bits";
  return std::nullopt;
}

/// Solves `m` both ways; fails the test on the first difference. Returns
/// the oracle's solution, adds to `stats` and sets `fill` to the sparse
/// solve's peak entries over the m x (n + m) cells of the dense rows.
Solution expect_same(const Model& m, const std::string& label,
                     DenseStats* stats = nullptr, double* fill = nullptr) {
  const Solution want = dense_simplex(m, stats);
  const SimplexSolver solver;
  const Solution got = solver.solve(m);
  const auto d = diff(want, got);
  EXPECT_FALSE(d.has_value()) << label << ": " << *d;
  const double cells = static_cast<double>(m.num_constraints()) *
                       static_cast<double>(m.num_constraints() +
                                           m.num_variables());
  const double peak = static_cast<double>(solver.last_peak_entries());
  EXPECT_LE(peak, cells) << label;
  if (fill != nullptr) *fill = cells > 0.0 ? peak / cells : 0.0;
  return want;
}

/// A random stage-1-shaped LP: per pair a demand row and `tunnels`
/// columns, each crossing up to `max_hops` random link rows. Half the
/// models use small integer data (0/1 coefficients, rhs from a handful of
/// values, some zero), which makes ratio ties and exact cancellations
/// common; few links with long tunnels make the tableau fill in.
Model random_site_model(std::uint64_t seed) {
  util::Rng rng(seed);
  const bool integral = rng.uniform() < 0.5;
  const bool fill_heavy = rng.uniform() < 0.25;
  const int links = fill_heavy ? 2 + static_cast<int>(rng.uniform_int(0, 5))
                               : 1 + static_cast<int>(rng.uniform_int(0, 29));
  const int pairs = 1 + static_cast<int>(rng.uniform_int(0, 24));
  const int tunnels = 1 + static_cast<int>(rng.uniform_int(0, 3));
  const int max_hops = fill_heavy ? links + 2
                                  : 1 + static_cast<int>(rng.uniform_int(0, 5));
  const double zero_rhs = rng.uniform() < 0.3 ? 0.15 : 0.0;
  auto rhs = [&](double lo, double hi) {
    if (rng.uniform() < zero_rhs) return 0.0;
    if (integral) return static_cast<double>(rng.uniform_int(1, 6));
    return rng.uniform(lo, hi);
  };
  Model m;
  std::vector<std::size_t> link_rows;
  for (int e = 0; e < links; ++e) {
    link_rows.push_back(m.add_constraint(rhs(20.0, 400.0)));
  }
  for (int k = 0; k < pairs; ++k) {
    const std::size_t demand_row = m.add_constraint(rhs(1.0, 60.0));
    for (int t = 0; t < tunnels; ++t) {
      const double profit = integral ? 1.0 : 1.0 - 0.02 * rng.uniform(1, 6);
      const auto var = m.add_variable(profit);
      m.add_coefficient(demand_row, var, 1.0);
      const int hops = 1 + static_cast<int>(rng.uniform_int(0, max_hops - 1));
      for (int h = 0; h < hops; ++h) {
        // A repeated link accumulates, as a tunnel crossing it twice does.
        m.add_coefficient(link_rows[rng.uniform_int(0, links - 1)], var,
                          integral ? 1.0 : rng.uniform(0.5, 2.0));
      }
    }
  }
  return m;
}

TEST(SimplexDiff, RandomSiteShapedModels) {
  constexpr std::uint64_t kModels = 10'000;
  std::size_t optimal = 0, fill_heavy = 0;
  DenseStats stats;
  for (std::uint64_t seed = 1; seed <= kModels; ++seed) {
    const Model m = random_site_model(seed * 0x9E3779B97F4A7C15ULL);
    double fill = 0.0;
    const Solution s =
        expect_same(m, "seed " + std::to_string(seed), &stats, &fill);
    optimal += s.status == Status::kOptimal;
    fill_heavy += fill >= 0.4;
    if (HasFailure()) break;
  }
  EXPECT_EQ(optimal, kModels);
  EXPECT_GT(stats.basis_ties, 0u);
  EXPECT_GT(fill_heavy, kModels / 20);  // tableaux at least 40% nonzero
}

TEST(SimplexDiff, DuplicateCoefficientColumnsAndZeroRhsRows) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    util::Rng rng(seed);
    Model m;
    for (int i = 0; i < 12; ++i) {
      m.add_constraint(i % 3 == 0 ? 0.0 : rng.uniform(1.0, 10.0));
    }
    for (int j = 0; j < 20; ++j) {
      const auto x = m.add_variable(rng.uniform(0.5, 2.0));
      // Six additions into random rows: a repeated row accumulates, with
      // additions to other rows in between.
      for (int t = 0; t < 6; ++t) {
        m.add_coefficient(rng.uniform_int(0, 11), x, rng.uniform(0.1, 1.5));
      }
    }
    expect_same(m, "seed " + std::to_string(seed));
  }
}

TEST(SimplexDiff, RatioTiesTheBasisIndexBreaks) {
  // max 3a + 2b s.t. b <= 2 (row 0); a + b/2 <= 1 (row 1). The first pivot
  // makes a basic in row 1; then b ties at ratio 2 in rows 0 and 1, and
  // row 1 wins because a's index is below row 0's slack. `blocks` copies
  // of it side by side repeat the tie on later rows.
  DenseStats stats;
  for (int blocks = 1; blocks <= 6; ++blocks) {
    Model m;
    for (int k = 0; k < blocks; ++k) {
      const auto a = m.add_variable(3.0);
      const auto b = m.add_variable(2.0);
      const auto r0 = m.add_constraint(2.0);
      const auto r1 = m.add_constraint(1.0);
      m.add_coefficient(r0, b, 1.0);
      m.add_coefficient(r1, a, 1.0);
      m.add_coefficient(r1, b, 0.5);
    }
    const Solution s =
        expect_same(m, "blocks " + std::to_string(blocks), &stats);
    EXPECT_EQ(s.status, Status::kOptimal);
  }
  EXPECT_GE(stats.basis_ties, 6u);
}

TEST(SimplexDiff, NearTiesFollowAscendingRowOrder) {
  // Ratios within kTolerance of each other but not of the whole chain:
  // visited as rows 0, 1, 2 the ratio test ends on row 2 (ratio 1); in
  // the column's own order (rows 2, 1, 0: coefficients added backwards)
  // the basis tie-break would walk up to row 0. Random variants shuffle
  // the rows over several columns.
  {
    Model m;
    const auto x = m.add_variable(1.0);
    for (const double rhs : {1.0 + 1.2e-9, 1.0 + 0.6e-9, 1.0}) {
      m.add_constraint(rhs);
    }
    for (const std::size_t r : {2u, 1u, 0u}) m.add_coefficient(r, x, 1.0);
    const Solution s = expect_same(m, "chain");
    EXPECT_EQ(s.x[x], 1.0);
  }
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    util::Rng rng(seed);
    Model m;
    const int rows = 3 + static_cast<int>(rng.uniform_int(0, 5));
    for (int i = 0; i < rows; ++i) {
      const auto step = static_cast<double>(rng.uniform_int(0, 4));
      m.add_constraint(1.0 + 0.4e-9 * step);
    }
    for (int j = 0; j < 4; ++j) {
      const auto x = m.add_variable(rng.uniform(0.5, 2.0));
      std::vector<std::size_t> order(rows);
      for (int i = 0; i < rows; ++i) order[i] = i;
      for (int i = rows - 1; i > 0; --i) {
        std::swap(order[i], order[rng.uniform_int(0, i)]);
      }
      for (const std::size_t r : order) m.add_coefficient(r, x, 1.0);
    }
    expect_same(m, "seed " + std::to_string(seed));
  }
}

/// Klee-Minty cube of dimension `d`: Dantzig's rule visits 2^d - 1
/// vertices, so the run outlasts bland_after = 2 (m + n). `zero_rows`
/// extra zero-rhs rows make it degenerate.
Model klee_minty(int d, int zero_rows) {
  Model m;
  std::vector<std::size_t> vars;
  for (int j = 0; j < d; ++j) {
    vars.push_back(m.add_variable(std::ldexp(1.0, d - 1 - j)));
  }
  for (int i = 0; i < d; ++i) {
    const auto r = m.add_constraint(std::pow(5.0, i + 1));
    for (int j = 0; j < i; ++j) {
      m.add_coefficient(r, vars[j], std::ldexp(1.0, i - j + 1));
    }
    m.add_coefficient(r, vars[i], 1.0);
  }
  for (int z = 0; z < zero_rows; ++z) {
    m.add_coefficient(m.add_constraint(0.0), vars[d - 1 - z % d], 1.0);
  }
  return m;
}

TEST(SimplexDiff, DegenerateModelRunsPastBlandAfter) {
  DenseStats stats;
  const Solution s = expect_same(klee_minty(7, 2), "klee-minty 7", &stats);
  EXPECT_EQ(s.status, Status::kOptimal);
  EXPECT_GT(s.iterations, 2u * (9 + 7));
  EXPECT_GT(stats.bland_pivots, 0u);
}

TEST(SimplexDiff, IterationLimitRun) {
  // Klee-Minty 14 still finishes, in 1,273 of its 1,400 pivots.
  const Solution s = expect_same(klee_minty(15, 0), "klee-minty 15");
  EXPECT_EQ(s.status, Status::kIterLimit);
  EXPECT_EQ(s.iterations, 50u * (15 + 15));
}

TEST(SimplexDiff, UnboundedModels) {
  {
    Model m;  // the profitable column has no row at all
    m.add_variable(1.0);
    m.add_constraint(1.0);
    EXPECT_EQ(expect_same(m, "no rows").status, Status::kUnbounded);
  }
  {
    // Dantzig's rule prices the bounded, more profitable columns first,
    // so unboundedness shows only after some pivots.
    Model m;
    m.add_variable(1.0);
    for (int j = 0; j < 4; ++j) {
      m.add_coefficient(m.add_constraint(3.0), m.add_variable(5.0 + j), 1.0);
    }
    const Solution s = expect_same(m, "after pivots");
    EXPECT_EQ(s.status, Status::kUnbounded);
    EXPECT_EQ(s.iterations, 4u);
  }
}

TEST(SimplexDiff, CogentcoClusteredBucketLps) {
  // One cold MegaTE solve on Cogentco* with the clustered stage 1 of the
  // cogentco_faults control-loop workload (2 tunnels per pair, 8 site
  // clusters, 20k endpoints at load 0.6).
  topo::GeneratorOptions gopt;
  gopt.seed = 42;
  const topo::Graph g =
      topo::make_topology(topo::TopologyKind::kCogentco, gopt);
  topo::TunnelOptions topt;
  topt.tunnels_per_pair = 2;
  const topo::TunnelSet tunnels = topo::build_tunnels(g, topt);
  double hops = 0.0;
  std::size_t pairs = 0;
  for (const auto& [pair, ts] : tunnels.all()) {
    if (ts.empty()) continue;
    hops += static_cast<double>(ts.front().hops());
    ++pairs;
  }
  const tm::EndpointLayout layout =
      tm::generate_endpoints_with_total(g, 20000, 0.8, 42);
  tm::TrafficOptions tmo;
  tmo.target_total_gbps =
      tm::total_link_capacity_gbps(g) * 0.6 * static_cast<double>(pairs) / hops;
  const tm::TrafficMatrix traffic = tm::generate_traffic(g, layout, tmo, 43);

  te::TeProblem problem;
  problem.graph = &g;
  problem.tunnels = &tunnels;
  problem.traffic = &traffic;
  te::MegaTeOptions opt;
  opt.stage1_clusters = 8;
  opt.threads = 2;
  te::MegaTeSolver solver(opt);
  std::vector<Model> models;
  {
    std::lock_guard<std::mutex> lock(g_capture_mu);
    g_capture = &models;
  }
  solver.solve(problem, {});
  {
    std::lock_guard<std::mutex> lock(g_capture_mu);
    g_capture = nullptr;
  }

  ASSERT_GE(models.size(), 20u);
  std::size_t largest = 0;
  for (std::size_t i = 0; i < models.size(); ++i) {
    largest = std::max(largest, models[i].num_constraints());
    expect_same(models[i], "bucket LP " + std::to_string(i));
  }
  EXPECT_GE(largest, 500u);  // the big buckets are in the set
}

}  // namespace
}  // namespace megate::lp

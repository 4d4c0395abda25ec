// Unit and property tests for megate::lp — the exact simplex, the
// approximate packing solver, and the cross-check between them on random
// packing LPs (the correctness backbone of MaxSiteFlow).

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "megate/lp/model.h"
#include "megate/lp/packing.h"
#include "megate/lp/simplex.h"
#include "megate/util/rng.h"

namespace megate::lp {
namespace {

// --- Model ---------------------------------------------------------------

TEST(LpModel, BuildAndQuery) {
  Model m;
  const auto x = m.add_variable(2.0);
  const auto r = m.add_constraint(5.0);
  m.add_coefficient(r, x, 1.5);
  EXPECT_EQ(m.num_variables(), 1u);
  EXPECT_EQ(m.num_constraints(), 1u);
  EXPECT_EQ(m.num_nonzeros(), 1u);
  EXPECT_DOUBLE_EQ(m.objective_coef(x), 2.0);
  EXPECT_DOUBLE_EQ(m.rhs(r), 5.0);
}

TEST(LpModel, DuplicateCoefficientsAccumulate) {
  Model m;
  const auto x = m.add_variable(1.0);
  const auto r = m.add_constraint(10.0);
  m.add_coefficient(r, x, 1.0);
  m.add_coefficient(r, x, 2.0);
  EXPECT_EQ(m.num_nonzeros(), 1u);
  EXPECT_DOUBLE_EQ(m.column(x)[0].coef, 3.0);
}

TEST(LpModel, RejectsNegativeRhs) {
  Model m;
  EXPECT_THROW(m.add_constraint(-1.0), std::invalid_argument);
}

TEST(LpModel, RejectsNonPositiveCoefficient) {
  Model m;
  const auto x = m.add_variable(1.0);
  const auto r = m.add_constraint(1.0);
  EXPECT_THROW(m.add_coefficient(r, x, 0.0), std::invalid_argument);
  EXPECT_THROW(m.add_coefficient(r, x, -2.0), std::invalid_argument);
}

TEST(LpModel, RejectsOutOfRange) {
  Model m;
  m.add_variable(1.0);
  m.add_constraint(1.0);
  EXPECT_THROW(m.add_coefficient(5, 0, 1.0), std::out_of_range);
  EXPECT_THROW(m.add_coefficient(0, 5, 1.0), std::out_of_range);
}

TEST(LpModel, ObjectiveAndViolation) {
  Model m;
  const auto x = m.add_variable(3.0);
  const auto y = m.add_variable(1.0);
  const auto r = m.add_constraint(4.0);
  m.add_coefficient(r, x, 1.0);
  m.add_coefficient(r, y, 1.0);
  std::vector<double> point{2.0, 3.0};
  EXPECT_DOUBLE_EQ(m.objective_value(point), 9.0);
  EXPECT_DOUBLE_EQ(m.max_violation(point), 1.0);  // 5 > 4
  point = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(m.max_violation(point), 0.0);
}

// --- Simplex on hand-checked instances -------------------------------------

TEST(Simplex, SingleVariableCapacity) {
  // max 2x s.t. x <= 7 -> x = 7.
  Model m;
  const auto x = m.add_variable(2.0);
  m.add_coefficient(m.add_constraint(7.0), x, 1.0);
  Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[x], 7.0, 1e-9);
  EXPECT_NEAR(s.objective, 14.0, 1e-9);
}

TEST(Simplex, ClassicTwoVariable) {
  // max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18 -> (2, 6), obj 36.
  Model m;
  const auto x = m.add_variable(3.0);
  const auto y = m.add_variable(5.0);
  const auto r1 = m.add_constraint(4.0);
  const auto r2 = m.add_constraint(12.0);
  const auto r3 = m.add_constraint(18.0);
  m.add_coefficient(r1, x, 1.0);
  m.add_coefficient(r2, y, 2.0);
  m.add_coefficient(r3, x, 3.0);
  m.add_coefficient(r3, y, 2.0);
  Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-9);
  EXPECT_NEAR(s.x[x], 2.0, 1e-9);
  EXPECT_NEAR(s.x[y], 6.0, 1e-9);
}

TEST(Simplex, DetectsUnbounded) {
  // max x with no constraint rows on x.
  Model m;
  m.add_variable(1.0);
  m.add_constraint(1.0);  // unrelated row
  Solution s = SimplexSolver().solve(m);
  EXPECT_EQ(s.status, Status::kUnbounded);
}

TEST(Simplex, ZeroRhsPinsVariable) {
  Model m;
  const auto x = m.add_variable(1.0);
  m.add_coefficient(m.add_constraint(0.0), x, 1.0);
  Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[x], 0.0, 1e-12);
}

TEST(Simplex, EmptyModel) {
  Model m;
  Solution s = SimplexSolver().solve(m);
  EXPECT_EQ(s.status, Status::kOptimal);
  EXPECT_EQ(s.objective, 0.0);
}

TEST(Simplex, NegativeProfitStaysAtZero) {
  Model m;
  const auto x = m.add_variable(-1.0);
  m.add_coefficient(m.add_constraint(5.0), x, 1.0);
  Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[x], 0.0, 1e-12);
}

TEST(Simplex, SharedResourceSplit) {
  // Two variables share one unit-capacity row; higher profit wins fully.
  Model m;
  const auto x = m.add_variable(2.0);
  const auto y = m.add_variable(1.0);
  const auto r = m.add_constraint(1.0);
  m.add_coefficient(r, x, 1.0);
  m.add_coefficient(r, y, 1.0);
  Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[x], 1.0, 1e-9);
  EXPECT_NEAR(s.x[y], 0.0, 1e-9);
}

// --- Packing solver ---------------------------------------------------------

TEST(Packing, MatchesSimplexOnSingleRow) {
  Model m;
  const auto x = m.add_variable(1.0);
  m.add_coefficient(m.add_constraint(10.0), x, 2.0);
  Solution s = PackingSolver().solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[x], 5.0, 0.5);
  EXPECT_LE(m.max_violation(s.x), 1e-9);
}

TEST(Packing, FeasibilityIsExact) {
  util::Rng rng(99);
  Model m;
  std::vector<std::size_t> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back(m.add_constraint(rng.uniform(1.0, 50.0)));
  }
  for (int j = 0; j < 200; ++j) {
    const auto x = m.add_variable(rng.uniform(0.5, 2.0));
    const int k = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int c = 0; c < k; ++c) {
      m.add_coefficient(rows[rng.uniform_int(0, rows.size() - 1)], x,
                        rng.uniform(0.5, 1.5));
    }
  }
  Solution s = PackingSolver().solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_LE(m.max_violation(s.x), 1e-6);
  for (double v : s.x) EXPECT_GE(v, 0.0);
}

TEST(Packing, SkipsNonPositiveProfitColumns) {
  Model m;
  const auto x = m.add_variable(-5.0);
  const auto y = m.add_variable(1.0);
  const auto r = m.add_constraint(3.0);
  m.add_coefficient(r, x, 1.0);
  m.add_coefficient(r, y, 1.0);
  Solution s = PackingSolver().solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_DOUBLE_EQ(s.x[x], 0.0);
  EXPECT_NEAR(s.x[y], 3.0, 0.2);
}

TEST(Packing, ZeroCapacityRowKillsColumn) {
  Model m;
  const auto x = m.add_variable(1.0);
  m.add_coefficient(m.add_constraint(0.0), x, 1.0);
  Solution s = PackingSolver().solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_DOUBLE_EQ(s.x[x], 0.0);
}

TEST(Packing, UnboundedDetected) {
  Model m;
  m.add_variable(1.0);  // positive profit, no rows
  Solution s = PackingSolver().solve(m);
  EXPECT_EQ(s.status, Status::kUnbounded);
}

TEST(Packing, RejectsBadEpsilon) {
  Model m;
  const auto x = m.add_variable(1.0);
  m.add_coefficient(m.add_constraint(1.0), x, 1.0);
  PackingOptions opt;
  opt.epsilon = 0.9;
  EXPECT_EQ(PackingSolver(opt).solve(m).status, Status::kInvalidModel);
  opt.epsilon = 0.0;
  EXPECT_EQ(PackingSolver(opt).solve(m).status, Status::kInvalidModel);
}

TEST(Packing, RejectsZeroIterationBudget) {
  // max_iterations == 0 can never route anything; the solver must refuse
  // instead of returning the all-zero iterate labelled kOptimal.
  Model m;
  const auto x = m.add_variable(1.0);
  m.add_coefficient(m.add_constraint(1.0), x, 1.0);
  PackingOptions opt;
  opt.max_iterations = 0;
  EXPECT_EQ(PackingSolver(opt).solve(m).status, Status::kInvalidModel);
  // The sentinel (and any positive cap) stays accepted.
  opt.max_iterations = PackingOptions::kAutoIterations;
  EXPECT_EQ(PackingSolver(opt).solve(m).status, Status::kOptimal);
  opt.max_iterations = 5;
  const Solution s = PackingSolver(opt).solve(m);
  EXPECT_TRUE(s.status == Status::kOptimal || s.status == Status::kIterLimit);
  EXPECT_LE(s.iterations, 5u);
}

TEST(Packing, DualBoundsOptimum) {
  Model m;
  const auto x = m.add_variable(1.0);
  m.add_coefficient(m.add_constraint(10.0), x, 1.0);
  PackingSolver solver;
  Solution s = solver.solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_GE(solver.last_dual_bound() + 1e-6, s.objective);
}

// --- Packing invariants ----------------------------------------------------

namespace {

/// Random packing LP used by the invariant sweep below.
Model random_packing_model(std::uint64_t seed, int nrows, int ncols) {
  util::Rng rng(seed);
  Model m;
  std::vector<std::size_t> rows;
  for (int i = 0; i < nrows; ++i) {
    rows.push_back(m.add_constraint(rng.uniform(2.0, 60.0)));
  }
  for (int j = 0; j < ncols; ++j) {
    const auto x = m.add_variable(rng.uniform(0.3, 2.5));
    const int k = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int t = 0; t < k; ++t) {
      m.add_coefficient(rows[rng.uniform_int(0, rows.size() - 1)], x,
                        rng.uniform(0.3, 1.8));
    }
  }
  return m;
}

}  // namespace

// Property sweep: the primal iterate is feasible to within rounding,
// bounded above by the exposed dual bound, and — cross-checked against
// the exact simplex — the dual bound really is an upper bound on OPT
// while the primal stays a (1 - 3 eps)-approximation.
TEST(PackingInvariants, FeasibleAndDualBoundedOnAllPaths) {
  const double eps = 0.1;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Model m = random_packing_model(seed * 7919, 6 + seed % 7,
                                         30 + static_cast<int>(seed) * 9);
    const Solution exact = SimplexSolver().solve(m);
    ASSERT_EQ(exact.status, Status::kOptimal) << "seed " << seed;

    PackingOptions opt;
    opt.epsilon = eps;
    PackingSolver solver(opt);
    const Solution s = solver.solve(m);
    const std::string label = "seed=" + std::to_string(seed);
    ASSERT_EQ(s.status, Status::kOptimal) << label;
    // Primal feasibility: no row exceeds its rhs beyond rounding.
    EXPECT_LE(m.max_violation(s.x), 1e-6) << label;
    for (double v : s.x) EXPECT_GE(v, 0.0) << label;
    // Weak duality, both against the solver's own bound and OPT.
    const double dual = solver.last_dual_bound();
    EXPECT_LE(s.objective, dual + 1e-6) << label;
    EXPECT_GE(dual, exact.objective - 1e-6) << label;
    // Approximation guarantee.
    EXPECT_GE(s.objective, (1.0 - 3.0 * eps) * exact.objective - 1e-6)
        << label;
    EXPECT_LE(s.objective, exact.objective + 1e-6) << label;
  }
}

// Degenerate shapes: zero-capacity rows pin their columns, empty models
// and dead columns are kOptimal at zero, a lone unconstrained profitable
// column is unbounded — and a repeat solve returns the same answer.
TEST(PackingInvariants, DegenerateModelsOnBothPaths) {
  const auto solve_twice = [&](const Model& m) {
    const Solution a = PackingSolver().solve(m);
    const Solution c = PackingSolver().solve(m);
    EXPECT_EQ(a.status, c.status);
    EXPECT_EQ(a.x, c.x);
    return c;
  };

  {
    Model m;  // empty
    EXPECT_EQ(solve_twice(m).status, Status::kOptimal);
  }
  {
    Model m;  // single column, single row
    const auto x = m.add_variable(2.0);
    m.add_coefficient(m.add_constraint(4.0), x, 1.0);
    const Solution s = solve_twice(m);
    EXPECT_EQ(s.status, Status::kOptimal);
    EXPECT_GT(s.x[x], 0.0);
    EXPECT_LE(m.max_violation(s.x), 1e-9);
  }
  {
    Model m;  // every column dead on a zero-capacity row
    const auto r = m.add_constraint(0.0);
    for (int j = 0; j < 3; ++j) m.add_coefficient(r, m.add_variable(1.0), 1.0);
    const Solution s = solve_twice(m);
    EXPECT_EQ(s.status, Status::kOptimal);
    for (double v : s.x) EXPECT_EQ(v, 0.0);
  }
  {
    Model m;  // dead and live columns mixed
    const auto dead_row = m.add_constraint(0.0);
    const auto live_row = m.add_constraint(5.0);
    const auto xd = m.add_variable(10.0);
    m.add_coefficient(dead_row, xd, 1.0);
    const auto xl = m.add_variable(1.0);
    m.add_coefficient(live_row, xl, 1.0);
    const Solution s = solve_twice(m);
    EXPECT_EQ(s.status, Status::kOptimal);
    EXPECT_EQ(s.x[xd], 0.0);
    EXPECT_GT(s.x[xl], 0.0);
  }
  {
    Model m;  // only non-positive profits: nothing to pack
    m.add_variable(-1.0);
    m.add_variable(0.0);
    m.add_constraint(3.0);
    EXPECT_EQ(solve_twice(m).status, Status::kOptimal);
  }
  {
    Model m;  // profitable column with no rows at all
    m.add_variable(1.0);
    m.add_constraint(1.0);
    EXPECT_EQ(solve_twice(m).status, Status::kUnbounded);
  }
}

// Property sweep: on random packing LPs the packing solver must be
// feasible and within (1 - 3 eps) of the simplex optimum.
struct PackingCase {
  std::uint64_t seed;
  int rows;
  int cols;
  double epsilon;
};

class PackingVsSimplex : public ::testing::TestWithParam<PackingCase> {};

TEST_P(PackingVsSimplex, ApproximatesOptimum) {
  const PackingCase c = GetParam();
  util::Rng rng(c.seed);
  Model m;
  std::vector<std::size_t> rows;
  for (int i = 0; i < c.rows; ++i) {
    rows.push_back(m.add_constraint(rng.uniform(5.0, 100.0)));
  }
  for (int j = 0; j < c.cols; ++j) {
    const auto x = m.add_variable(rng.uniform(0.2, 3.0));
    // Each column hits 1-4 distinct rows.
    const int k = 1 + static_cast<int>(rng.uniform_int(0, 3));
    std::set<std::size_t> used;
    for (int t = 0; t < k; ++t) {
      const std::size_t r = rows[rng.uniform_int(0, rows.size() - 1)];
      if (used.insert(r).second) {
        m.add_coefficient(r, x, rng.uniform(0.2, 2.0));
      }
    }
  }
  Solution exact = SimplexSolver().solve(m);
  ASSERT_EQ(exact.status, Status::kOptimal) << "simplex failed";

  PackingOptions opt;
  opt.epsilon = c.epsilon;
  Solution approx = PackingSolver(opt).solve(m);
  ASSERT_EQ(approx.status, Status::kOptimal);
  EXPECT_LE(m.max_violation(approx.x), 1e-6);
  EXPECT_GE(approx.objective,
            (1.0 - 3.0 * c.epsilon) * exact.objective - 1e-6)
      << "approx " << approx.objective << " vs exact " << exact.objective;
  EXPECT_LE(approx.objective, exact.objective + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    RandomPackingLps, PackingVsSimplex,
    ::testing::Values(PackingCase{1, 3, 10, 0.05}, PackingCase{2, 5, 30, 0.1},
                      PackingCase{3, 8, 60, 0.1}, PackingCase{4, 10, 80, 0.05},
                      PackingCase{5, 4, 200, 0.1}, PackingCase{6, 15, 50, 0.1},
                      PackingCase{7, 2, 5, 0.05}, PackingCase{8, 20, 120, 0.1},
                      PackingCase{9, 6, 40, 0.2},
                      PackingCase{10, 12, 90, 0.1}));

TEST(SimplexPinned, ToleranceSitsBetweenTheseEdges) {
  // A profit of 5e-10 is below the optimality tolerance: x stays at 0.
  {
    Model m;
    const auto x = m.add_variable(5e-10);
    m.add_coefficient(m.add_constraint(1.0), x, 1.0);
    const Solution s = SimplexSolver().solve(m);
    ASSERT_EQ(s.status, Status::kOptimal);
    EXPECT_EQ(s.x[x], 0.0);
  }
  // A coefficient of 5e-9 is above the ratio-test tolerance: it bounds x.
  {
    Model m;
    const auto x = m.add_variable(1.0);
    m.add_coefficient(m.add_constraint(1.0), x, 5e-9);
    const Solution s = SimplexSolver().solve(m);
    ASSERT_EQ(s.status, Status::kOptimal);
    EXPECT_NEAR(s.x[x], 2e8, 1e-3);
  }
}

}  // namespace
}  // namespace megate::lp

// Tests for megate::ssp — exact DP against brute force, the sorted greedy,
// and FastSSP's four-step pipeline with its Appendix A.2 error bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "megate/ssp/fast_ssp.h"
#include "megate/ssp/subset_sum.h"
#include "megate/util/rng.h"

namespace megate::ssp {
namespace {

double best_by_brute_force(const std::vector<double>& values,
                           double capacity) {
  const std::size_t n = values.size();
  double best = 0.0;
  for (std::size_t mask = 0; mask < (1ull << n); ++mask) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1ull << i)) sum += values[i];
    }
    if (sum <= capacity) best = std::max(best, sum);
  }
  return best;
}

double selection_sum(const std::vector<double>& values, const Selection& s) {
  double sum = 0.0;
  for (std::size_t i : s.indices) sum += values[i];
  return sum;
}

// --- exact DP ---------------------------------------------------------------

TEST(SolveDp, MatchesBruteForceOnIntegers) {
  const std::vector<double> v{3, 34, 4, 12, 5, 2};
  Selection s = solve_dp(v, 9, 1.0);
  EXPECT_DOUBLE_EQ(s.total, 9.0);  // 4 + 5
  EXPECT_DOUBLE_EQ(selection_sum(v, s), s.total);
}

TEST(SolveDp, EmptyAndZeroCapacity) {
  EXPECT_TRUE(solve_dp({}, 10, 1.0).indices.empty());
  const std::vector<double> v{1, 2, 3};
  EXPECT_TRUE(solve_dp(v, 0, 1.0).indices.empty());
}

TEST(SolveDp, ItemLargerThanCapacityIgnored) {
  const std::vector<double> v{100.0, 3.0};
  Selection s = solve_dp(v, 10, 1.0);
  EXPECT_DOUBLE_EQ(s.total, 3.0);
}

TEST(SolveDp, SelectionNeverExceedsCapacity) {
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> v;
    for (int i = 0; i < 30; ++i) v.push_back(rng.uniform(0.1, 20.0));
    const double cap = rng.uniform(10.0, 100.0);
    Selection s = solve_dp(v, cap, 0.01);
    EXPECT_LE(s.total, cap + 1e-9);
    EXPECT_NEAR(selection_sum(v, s), s.total, 1e-9);
  }
}

TEST(SolveDp, RejectsBadArguments) {
  const std::vector<double> v{1.0};
  EXPECT_THROW(solve_dp(v, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(solve_dp(v, 1.0, 0.0), std::invalid_argument);
  const std::vector<double> neg{-1.0};
  EXPECT_THROW(solve_dp(neg, 1.0, 1.0), std::invalid_argument);
}

TEST(SolveDp, GuardsAgainstHugeTables) {
  const std::vector<double> v{1.0};
  EXPECT_THROW(solve_dp(v, 1e18, 1e-9), std::invalid_argument);
}

struct DpCase {
  std::uint64_t seed;
  int items;
  double capacity;
};

class DpVsBruteForce : public ::testing::TestWithParam<DpCase> {};

TEST_P(DpVsBruteForce, FindsOptimumOnFineResolution) {
  const DpCase c = GetParam();
  util::Rng rng(c.seed);
  std::vector<double> v;
  for (int i = 0; i < c.items; ++i) {
    // Integer-valued items so the DP quantization is exact.
    v.push_back(static_cast<double>(rng.uniform_int(1, 15)));
  }
  Selection s = solve_dp(v, c.capacity, 1.0);
  EXPECT_DOUBLE_EQ(s.total, best_by_brute_force(v, c.capacity));
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, DpVsBruteForce,
    ::testing::Values(DpCase{1, 8, 20}, DpCase{2, 10, 35}, DpCase{3, 12, 18},
                      DpCase{4, 14, 50}, DpCase{5, 9, 11}, DpCase{6, 16, 64},
                      DpCase{7, 10, 9}, DpCase{8, 13, 41}));

// --- greedy -----------------------------------------------------------------

TEST(Greedy, TakesLargestFirst) {
  const std::vector<double> v{5, 9, 3};
  Selection s = solve_greedy(v, 12);
  EXPECT_DOUBLE_EQ(s.total, 12.0);  // 9 + 3
}

TEST(Greedy, NeverExceedsCapacity) {
  util::Rng rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> v;
    for (int i = 0; i < 50; ++i) v.push_back(rng.lognormal(0, 1));
    const double cap = rng.uniform(1.0, 30.0);
    Selection s = solve_greedy(v, cap);
    EXPECT_LE(s.total, cap + 1e-9);
  }
}

TEST(Greedy, EmptyInputs) {
  EXPECT_TRUE(solve_greedy({}, 5).indices.empty());
  const std::vector<double> v{1};
  EXPECT_TRUE(solve_greedy(v, 0).indices.empty());
}

TEST(Greedy, IndicesAreSortedAndValid) {
  const std::vector<double> v{2, 8, 1, 4};
  Selection s = solve_greedy(v, 100);
  EXPECT_TRUE(std::is_sorted(s.indices.begin(), s.indices.end()));
  EXPECT_EQ(s.indices.size(), 4u);
}

// --- FastSSP ---------------------------------------------------------------

TEST(FastSsp, FeasibleAndFillsSimpleCase) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  FastSspStats stats;
  Selection s = fast_ssp(v, 10, {}, &stats);
  EXPECT_LE(s.total, 10.0 + 1e-9);
  EXPECT_GE(s.total, 9.0);  // near-perfect fill is achievable (e.g. 1+4+5)
  EXPECT_NEAR(selection_sum(v, s), s.total, 1e-9);
}

TEST(FastSsp, EmptyAndDegenerateInputs) {
  EXPECT_TRUE(fast_ssp({}, 10).indices.empty());
  const std::vector<double> v{1, 2};
  EXPECT_TRUE(fast_ssp(v, 0).indices.empty());
  const std::vector<double> huge{100.0};
  EXPECT_TRUE(fast_ssp(huge, 10).indices.empty());
}

TEST(FastSsp, RejectsBadEpsilon) {
  const std::vector<double> v{1.0};
  FastSspOptions o;
  o.epsilon_prime = 0.0;
  EXPECT_THROW(fast_ssp(v, 5, o), std::invalid_argument);
  o.epsilon_prime = 1.0;
  EXPECT_THROW(fast_ssp(v, 5, o), std::invalid_argument);
}

TEST(FastSsp, RejectsNegativeValues) {
  const std::vector<double> v{-1.0};
  EXPECT_THROW(fast_ssp(v, 5), std::invalid_argument);
}

TEST(FastSsp, StatsReportPaperParameters) {
  util::Rng rng(7);
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(rng.lognormal(-2, 1));
  const double cap = 30.0;
  FastSspOptions o;
  o.epsilon_prime = 0.1;
  FastSspStats stats;
  fast_ssp(v, cap, o, &stats);
  EXPECT_NEAR(stats.threshold, 0.1 * cap / 3.0, 1e-12);         // M
  EXPECT_NEAR(stats.resolution, 0.1 * stats.threshold / 3.0, 1e-12);  // delta
  EXPECT_GT(stats.num_clusters, 0u);
}

TEST(FastSsp, ErrorBoundIsMinResidualOverCapacity) {
  util::Rng rng(8);
  std::vector<double> v;
  for (int i = 0; i < 300; ++i) v.push_back(rng.lognormal(-1, 1));
  const double total = std::accumulate(v.begin(), v.end(), 0.0);
  const double cap = total * 0.6;  // force some flows to be left out
  FastSspStats stats;
  Selection s = fast_ssp(v, cap, {}, &stats);
  ASSERT_LT(s.indices.size(), v.size());
  // bound = min unselected value / capacity, and the achieved gap must
  // respect it: cap - total_selected <= min unselected (else greedy would
  // have added that flow).
  std::vector<char> taken(v.size(), 0);
  for (std::size_t i : s.indices) taken[i] = 1;
  double min_left = 1e300;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!taken[i] && v[i] <= cap) min_left = std::min(min_left, v[i]);
  }
  EXPECT_NEAR(stats.error_bound, min_left / cap, 1e-9);
  EXPECT_LE(cap - s.total, min_left + 1e-9);
}

TEST(FastSsp, LargeItemsBecomeSingletonClusters) {
  // All items above M = eps*F/3: clustering must not merge them.
  const double cap = 100.0;
  FastSspOptions o;
  o.epsilon_prime = 0.3;  // M = 10
  std::vector<double> v{20, 30, 40, 15};
  FastSspStats stats;
  fast_ssp(v, cap, o, &stats);
  EXPECT_EQ(stats.num_clusters, 4u);
}

struct FastSspCase {
  std::uint64_t seed;
  int items;
  double cap_fraction;  ///< capacity as a fraction of total demand
  double eps;
};

class FastSspQuality : public ::testing::TestWithParam<FastSspCase> {};

TEST_P(FastSspQuality, CloseToDpAndAboveGreedyFloor) {
  const FastSspCase c = GetParam();
  util::Rng rng(c.seed);
  std::vector<double> v;
  for (int i = 0; i < c.items; ++i) v.push_back(rng.lognormal(-2.0, 1.2));
  const double total = std::accumulate(v.begin(), v.end(), 0.0);
  const double cap = total * c.cap_fraction;

  FastSspOptions o;
  o.epsilon_prime = c.eps;
  Selection fast = fast_ssp(v, cap, o);
  Selection greedy = solve_greedy(v, cap);
  Selection dp = solve_dp(v, cap, cap / 20000.0);

  EXPECT_LE(fast.total, cap + 1e-9);
  // FastSSP approximates the optimum within eps-ish; the exact DP with a
  // fine grid is our optimum proxy.
  EXPECT_GE(fast.total, (1.0 - 2.0 * c.eps) * dp.total);
  // And it should never be much worse than the plain greedy heuristic.
  EXPECT_GE(fast.total, 0.95 * greedy.total);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FastSspQuality,
    ::testing::Values(FastSspCase{11, 200, 0.3, 0.1},
                      FastSspCase{12, 200, 0.7, 0.1},
                      FastSspCase{13, 500, 0.5, 0.05},
                      FastSspCase{14, 500, 0.9, 0.1},
                      FastSspCase{15, 1000, 0.2, 0.1},
                      FastSspCase{16, 1000, 0.6, 0.2},
                      FastSspCase{17, 50, 0.5, 0.1},
                      FastSspCase{18, 2000, 0.4, 0.1}));

TEST(FastSsp, CapacityAboveTotalTakesEverything) {
  util::Rng rng(9);
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(rng.lognormal(-2, 1));
  const double total = std::accumulate(v.begin(), v.end(), 0.0);
  Selection s = fast_ssp(v, total * 1.01);
  EXPECT_EQ(s.indices.size(), v.size());
  EXPECT_NEAR(s.total, total, 1e-9);
}

TEST(FastSsp, DeterministicForSameInput) {
  util::Rng rng(10);
  std::vector<double> v;
  for (int i = 0; i < 400; ++i) v.push_back(rng.lognormal(-2, 1));
  Selection a = fast_ssp(v, 20.0);
  Selection b = fast_ssp(v, 20.0);
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_DOUBLE_EQ(a.total, b.total);
}

TEST(FastSspPinned, TinyCapacityHitsTheResolutionFloor) {
  // eps'^2 * F / 9 is ~1e-7 here, so delta takes the 1e-6 floor.
  const std::vector<double> v = {3e-5, 7e-5, 1.1e-4, 2e-5, 5e-5, 9e-5, 4e-5};
  FastSspStats stats;
  const Selection s = fast_ssp(v, 1e-4, {}, &stats);
  EXPECT_EQ(stats.resolution, 1e-6);
  EXPECT_LE(s.total, 1e-4);
}

}  // namespace
}  // namespace megate::ssp

// Unit tests for megate::util — RNG determinism and distribution sanity,
// descriptive statistics, table rendering, and the thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "megate/util/rng.h"
#include "megate/util/stats.h"
#include "megate/util/stopwatch.h"
#include "megate/util/table.h"
#include "megate/util/thread_pool.h"

namespace megate::util {
namespace {

/// Sample mean and population standard deviation of `n` draws.
template <typename Draw>
std::pair<double, double> moments(int n, Draw draw) {
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = draw();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  return {mean, std::sqrt(sum_sq / n - mean * mean)};
}

// --- Rng ----------------------------------------------------------------

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all 5 values hit
}

TEST(Rng, UniformIntSingleValue) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42u);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  const auto [mean, stddev] = moments(200000, [&] { return rng.normal(); });
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(stddev, 1.0, 0.02);
}

TEST(Rng, WeibullMeanMatchesTheory) {
  Rng rng(13);
  const double shape = 0.8, scale = 100.0;
  const double mean =
      moments(200000, [&] { return rng.weibull(shape, scale); }).first;
  const double expected = scale * std::tgamma(1.0 + 1.0 / shape);
  EXPECT_NEAR(mean / expected, 1.0, 0.03);
}

TEST(Rng, WeibullNonNegative) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.weibull(0.5, 10.0), 0.0);
}

TEST(Rng, LognormalMedianIsExpMu) {
  Rng rng(19);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.lognormal(1.0, 0.8));
  EXPECT_NEAR(percentile(xs, 50) / std::exp(1.0), 1.0, 0.05);
}

TEST(Rng, ForkedStreamsIndependent) {
  Rng parent(31);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkDeterministic) {
  Rng p1(5), p2(5);
  Rng a = p1.fork(9);
  Rng b = p2.fork(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

// --- stats -----------------------------------------------------------------

TEST(Stats, PercentileInterpolates) {
  const double xs[] = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
  EXPECT_NEAR(percentile(xs, 25), 17.5, 1e-12);
}

TEST(Stats, PercentileUnsortedInput) {
  const double xs[] = {40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
}

TEST(Stats, PercentileSingleElement) {
  const double xs[] = {42.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 37.5), 42.0);
}

TEST(Stats, EmpiricalCdfStepsAreMonotone) {
  const double xs[] = {3.0, 1.0, 2.0, 2.0, 5.0};
  auto cdf = empirical_cdf(xs);
  ASSERT_EQ(cdf.size(), 4u);  // duplicates collapsed
  double prev_x = -1e9, prev_p = 0.0;
  for (auto [x, p] : cdf) {
    EXPECT_GT(x, prev_x);
    EXPECT_GT(p, prev_p);
    prev_x = x;
    prev_p = p;
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
  EXPECT_DOUBLE_EQ(cdf[1].second, 0.6);  // P[X <= 2] = 3/5
}

// --- table ---------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  Table t("demo");
  t.header({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"bbbb", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("bbbb"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ShortRowsArePadded) {
  Table t;
  t.header({"a", "b", "c"});
  t.add_row({"only"});
  std::ostringstream os;
  t.print(os);
  SUCCEED();  // no crash; padding handled
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(std::size_t{42}), "42");
  EXPECT_EQ(Table::with_commas(1234567), "1,234,567");
  EXPECT_EQ(Table::with_commas(999), "999");
  EXPECT_EQ(Table::with_commas(0), "0");
}

// --- thread pool ------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, SubmitReturnsUsableFuture) {
  ThreadPool pool(2);
  std::atomic<int> x{0};
  auto f = pool.submit([&] { x = 42; });
  f.wait();
  EXPECT_EQ(x.load(), 42);
}

TEST(ThreadPool, SizeMatchesRequested) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(sw.elapsed_seconds(), 0.0);
}

}  // namespace
}  // namespace megate::util

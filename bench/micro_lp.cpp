// LP backend ablation: exact sparse simplex vs the Garg-Konemann packing
// solver on MaxSiteFlow-shaped instances, measuring both runtime and the
// optimality gap — the design decision behind SiteLpOptions::kAuto — and
// the simplex's memory on a Cogentco*-bucket-sized LP.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "megate/lp/packing.h"
#include "megate/lp/simplex.h"
#include "megate/util/rng.h"

namespace {

using namespace megate;

/// Random site-LP-shaped packing model: `pairs` demand rows x `tunnels`
/// tunnels, `links` capacity rows, each tunnel crossing 2-5 links.
lp::Model site_shaped_model(int pairs, int links, std::uint64_t seed,
                            int tunnels = 3) {
  util::Rng rng(seed);
  lp::Model m;
  std::vector<std::size_t> link_rows;
  for (int e = 0; e < links; ++e) {
    link_rows.push_back(m.add_constraint(rng.uniform(100.0, 400.0)));
  }
  for (int k = 0; k < pairs; ++k) {
    const std::size_t demand_row =
        m.add_constraint(rng.uniform(1.0, 50.0));
    for (int t = 0; t < tunnels; ++t) {
      const auto var = m.add_variable(1.0 - 1e-3 * (1.0 + 0.3 * t));
      m.add_coefficient(demand_row, var, 1.0);
      const int hops = 2 + static_cast<int>(rng.uniform_int(0, 3));
      for (int h = 0; h < hops; ++h) {
        m.add_coefficient(link_rows[rng.uniform_int(0, links - 1)], var,
                          1.0);
      }
    }
  }
  return m;
}

/// A Cogentco*-bucket-sized stage-1 LP: 800 pairs x 2 tunnels over 130
/// link rows (931 rows, 1,600 columns), like the largest bucket of the
/// cogentco_faults workload's clustered stage 1. The links form a ring and
/// a tunnel crosses 2-5 consecutive ones, its second tunnel with a one-link
/// detour across the ring, so tunnels share links the way a cluster pair's
/// paths do; uniformly random links would fill the tableau in instead.
lp::Model bucket_shaped_model() {
  constexpr int kPairs = 800;
  constexpr int kLinks = 130;
  util::Rng rng(13);
  lp::Model m;
  std::vector<std::size_t> link_rows;
  for (int e = 0; e < kLinks; ++e) {
    link_rows.push_back(m.add_constraint(rng.uniform(200.0, 600.0)));
  }
  for (int k = 0; k < kPairs; ++k) {
    const std::size_t demand_row = m.add_constraint(rng.uniform(1.0, 50.0));
    const auto first = static_cast<int>(rng.uniform_int(0, kLinks - 1));
    const int hops = 2 + static_cast<int>(rng.uniform_int(0, 3));
    for (int t = 0; t < 2; ++t) {
      const auto var = m.add_variable(1.0 - 1e-3 * (1.0 + 0.3 * t));
      m.add_coefficient(demand_row, var, 1.0);
      for (int h = 0; h < hops + t; ++h) {
        const int detour = (t == 1 && h == 1) ? kLinks / 2 : 0;
        m.add_coefficient(link_rows[(first + h + detour) % kLinks], var, 1.0);
      }
    }
  }
  return m;
}

void BM_Simplex(benchmark::State& state) {
  auto model = site_shaped_model(static_cast<int>(state.range(0)), 40, 7);
  double obj = 0.0;
  for (auto _ : state) {
    auto sol = lp::SimplexSolver().solve(model);
    obj = sol.objective;
    benchmark::DoNotOptimize(sol);
  }
  state.counters["objective"] = obj;
}
BENCHMARK(BM_Simplex)->Arg(20)->Arg(60)->Arg(150)->Unit(benchmark::kMillisecond);

void BM_SimplexBucket(benchmark::State& state) {
  const lp::Model model = bucket_shaped_model();
  for (auto _ : state) {
    auto sol = lp::SimplexSolver().solve(model);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_SimplexBucket)->Unit(benchmark::kMillisecond);

void BM_Packing(benchmark::State& state) {
  auto model = site_shaped_model(static_cast<int>(state.range(0)), 40, 7);
  // The gap vs the simplex optimum, reported as a counter.
  const double exact = lp::SimplexSolver().solve(model).objective;
  lp::PackingOptions opt;
  opt.epsilon = 0.07;
  double obj = 0.0;
  for (auto _ : state) {
    auto sol = lp::PackingSolver(opt).solve(model);
    obj = sol.objective;
    benchmark::DoNotOptimize(sol);
  }
  state.counters["objective"] = obj;
  state.counters["gap%"] = exact > 0 ? 100.0 * (1.0 - obj / exact) : 0.0;
}
BENCHMARK(BM_Packing)->Arg(20)->Arg(60)->Arg(150)->Arg(600)
    ->Unit(benchmark::kMillisecond);

void BM_PackingLargeOnly(benchmark::State& state) {
  // Scales past SiteLpOptions::max_simplex_cells: packing only.
  auto model =
      site_shaped_model(static_cast<int>(state.range(0)), 160, 11);
  lp::PackingOptions opt;
  opt.epsilon = 0.1;
  for (auto _ : state) {
    auto sol = lp::PackingSolver(opt).solve(model);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_PackingLargeOnly)->Arg(2000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Measured sample in the unified metrics schema: simplex vs packing on
  // the 150-pair site-shaped model, with the packing optimality gap, and
  // the simplex on the bucket-sized LP.
  megate::bench::BenchReport report("micro_lp");
  auto model = site_shaped_model(150, 40, 7);
  auto& m = report.metrics();
  double exact = 0.0;
  {
    megate::util::Stopwatch sw;
    auto sol = lp::SimplexSolver().solve(model);
    exact = sol.objective;
    m.gauge("micro_lp.simplex_seconds").set(sw.elapsed_seconds());
    m.gauge("micro_lp.simplex_objective").set(sol.objective);
  }
  {
    lp::PackingOptions opt;
    opt.epsilon = 0.07;
    megate::util::Stopwatch sw;
    auto sol = lp::PackingSolver(opt).solve(model);
    m.gauge("micro_lp.packing_seconds").set(sw.elapsed_seconds());
    m.gauge("micro_lp.packing_objective").set(sol.objective);
    m.gauge("micro_lp.packing_gap")
        .set(exact > 0.0 ? 1.0 - sol.objective / exact : 0.0);
  }
  // The simplex's memory on the bucket-sized LP: its peak stored entries
  // against the (rows+1)*(rows+cols+1) cells a dense tableau would hold.
  const lp::Model bucket = bucket_shaped_model();
  {
    const lp::SimplexSolver solver;
    megate::util::Stopwatch sw;
    auto sol = solver.solve(bucket);
    m.gauge("micro_lp.bucket.simplex_seconds").set(sw.elapsed_seconds());
    m.gauge("micro_lp.bucket.simplex_objective").set(sol.objective);
    m.gauge("micro_lp.bucket.peak_entries")
        .set(static_cast<double>(solver.last_peak_entries()));
    const std::size_t rows = bucket.num_constraints();
    m.gauge("micro_lp.bucket.tableau_cells")
        .set(static_cast<double>((rows + 1) *
                                 (rows + bucket.num_variables() + 1)));
  }
  {
    lp::PackingOptions opt;
    opt.epsilon = 0.07;
    m.gauge("micro_lp.bucket.packing_objective")
        .set(lp::PackingSolver(opt).solve(bucket).objective);
  }
  return report.write() ? 0 : 1;
}

// Incremental-solve ablation: 20 TE intervals of a
// low-churn workload (~10% of site pairs change demand per interval),
// solved twice per interval — cold (MegaTeSolver::solve, the deployed
// baseline) and incrementally (SolveContext::incremental: the stage-2
// memo). The workload is endpoint-heavy so per-pair FastSSP
// dominates, which is exactly where the memo pays: clean pairs replay
// their cached assignment instead of re-running clustering + DP.
//
// Emits BENCH_ablation_incremental.json (megate.metrics/1 schema, consumed
// by CI and EXPERIMENTS.md) next to the human-readable table; the
// per-interval timing arrays ride in the document's "extra" member.
// Acceptance: median per-interval speedup >= 2x in process CPU time, the
// work the memo saves. Wall time is printed and exported too, but not
// gated: the cold lane's parallel stage 2 hides part of its work on idle
// cores, so the wall ratio reads whatever core count the host spared.
// Equivalence of the two solve paths is NOT asserted here — that is
// tests/incremental_test.cpp's job; the bench still cross-checks
// satisfied demand per interval as a sanity guard.

#include <algorithm>
#include <cmath>
#include <ctime>
#include <iostream>
#include <numeric>
#include <vector>

#include "bench_common.h"
#include "megate/te/checker.h"
#include "megate/te/megate_solver.h"
#include "megate/util/rng.h"
#include "megate/util/stopwatch.h"

namespace {

using namespace megate;

/// Per-pair demand churn: each site pair independently decides (seeded by
/// its identity, not iteration order) whether all its flows rescale this
/// interval. Pair-level churn keeps the dirty *pair* fraction at ~churn
/// regardless of how many flows a pair holds; `dirty_pairs` receives the
/// number of pairs that rescaled.
tm::TrafficMatrix evolve_traffic(const tm::TrafficMatrix& prev, double churn,
                                 std::uint64_t seed,
                                 std::size_t& dirty_pairs) {
  tm::TrafficMatrix out;
  dirty_pairs = 0;
  for (const auto& [pair, flows] : prev.pairs()) {
    util::Rng pair_rng(seed ^ (pair.src * 0x9E3779B97F4A7C15ULL) ^
                       (pair.dst * 0xBF58476D1CE4E5B9ULL));
    const bool dirty = pair_rng.uniform() < churn;
    if (dirty) ++dirty_pairs;
    for (const tm::EndpointDemand& f : flows) {
      tm::EndpointDemand d = f;
      if (dirty) d.demand_gbps *= 0.5 + pair_rng.uniform();
      out.add(d);
    }
  }
  return out;
}

/// Process CPU seconds since an arbitrary start: every thread's time,
/// so a parallel stage 2 is charged for all the work it spreads out.
double cpu_seconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: incremental solving across TE intervals",
      "§5.2 'the TE system updates the TE decisions every few minutes' — "
      "consecutive intervals share most of their demand, so most per-pair "
      "FastSSP work can be reused");

  bench::BenchReport report("ablation_incremental");
  const std::size_t kIntervals = 20;
  const double kChurn = 0.10;  // the ISSUE's low-churn regime

  bench::InstanceOptions iopt;
  iopt.load = 0.5;
  iopt.flows_per_endpoint = 1.5;
  auto inst = bench::make_instance(topo::TopologyKind::kB4,
                                   bench::full_scale() ? 100000 : 24000, iopt);

  te::MegaTeSolver cold_solver;
  te::MegaTeSolver inc_solver;
  tm::TrafficMatrix current = inst->traffic;

  std::vector<double> cold_s, inc_s, cold_cpu_s, inc_cpu_s, dirty_frac,
      hit_rate;
  util::Table t("cold vs incremental per interval");
  t.header({"interval", "dirty pairs", "cold (ms)", "incr (ms)", "speedup",
            "cold cpu (ms)", "incr cpu (ms)", "cpu speedup",
            "memo hit rate"});

  const std::size_t num_pairs = current.pairs().size();
  for (std::size_t interval = 0; interval < kIntervals; ++interval) {
    std::size_t dirty_pairs = num_pairs;
    if (interval > 0) {
      current = evolve_traffic(current, kChurn, 1000003ULL * interval,
                               dirty_pairs);
    }
    te::TeProblem problem = inst->problem();
    problem.traffic = &current;

    util::Stopwatch sw;
    double cpu0 = cpu_seconds();
    const te::TeSolution cold = cold_solver.solve(problem, {}).solution;
    const double tc = sw.elapsed_seconds();
    const double tc_cpu = cpu_seconds() - cpu0;
    sw.reset();
    cpu0 = cpu_seconds();
    te::SolveContext sctx;
    sctx.incremental = true;
    const te::SolveReport inc_report = inc_solver.solve(problem, sctx);
    const te::TeSolution& inc = inc_report.solution;
    const double ti = sw.elapsed_seconds();
    const double ti_cpu = cpu_seconds() - cpu0;
    const te::IncrementalStats& st = inc_report.incremental;

    // Sanity guard (full equivalence lives in tests/incremental_test.cpp).
    const double rel_gap =
        std::abs(inc.satisfied_gbps - cold.satisfied_gbps) /
        std::max(1.0, cold.satisfied_gbps);
    if (rel_gap > 1e-9) {
      std::cerr << "FAIL: interval " << interval
                << " satisfied demand diverged by " << rel_gap << "\n";
      return 1;
    }

    // Interval 0 primes the incremental state; it is a cold solve by
    // definition and stays out of the speedup medians.
    const std::size_t lookups = st.ssp_cache_hits + st.ssp_cache_misses;
    const double hits =
        lookups > 0 ? static_cast<double>(st.ssp_cache_hits) /
                          static_cast<double>(lookups)
                    : 0.0;
    const double dirty =
        num_pairs > 0 ? static_cast<double>(dirty_pairs) /
                            static_cast<double>(num_pairs)
                      : 1.0;
    if (interval > 0) {
      cold_s.push_back(tc);
      inc_s.push_back(ti);
      cold_cpu_s.push_back(tc_cpu);
      inc_cpu_s.push_back(ti_cpu);
      dirty_frac.push_back(dirty);
      hit_rate.push_back(hits);
    }
    t.add_row({std::to_string(interval),
               std::to_string(dirty_pairs) + "/" + std::to_string(num_pairs),
               util::Table::num(tc * 1e3, 1), util::Table::num(ti * 1e3, 1),
               util::Table::num(ti > 0.0 ? tc / ti : 0.0, 2) + "x",
               util::Table::num(tc_cpu * 1e3, 1),
               util::Table::num(ti_cpu * 1e3, 1),
               util::Table::num(ti_cpu > 0.0 ? tc_cpu / ti_cpu : 0.0, 2) + "x",
               util::Table::num(100.0 * hits, 1) + "%"});
  }
  t.print(std::cout);

  const double cold_med = median(cold_s);
  const double inc_med = median(inc_s);
  const double speedup = inc_med > 0.0 ? cold_med / inc_med : 0.0;
  const double cold_cpu_med = median(cold_cpu_s);
  const double inc_cpu_med = median(inc_cpu_s);
  const double cpu_speedup =
      inc_cpu_med > 0.0 ? cold_cpu_med / inc_cpu_med : 0.0;
  std::cout << "median per-interval wall: cold "
            << util::Table::num(cold_med * 1e3, 1) << " ms vs incremental "
            << util::Table::num(inc_med * 1e3, 1) << " ms -> "
            << util::Table::num(speedup, 2) << "x\n"
            << "median per-interval CPU: cold "
            << util::Table::num(cold_cpu_med * 1e3, 1)
            << " ms vs incremental " << util::Table::num(inc_cpu_med * 1e3, 1)
            << " ms -> " << util::Table::num(cpu_speedup, 2)
            << "x (acceptance: >= 2x)\n";

  auto mean_of = [](const std::vector<double>& v) {
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
  };
  auto& m = report.metrics();
  m.gauge("ablation_incremental.intervals")
      .set(static_cast<double>(kIntervals));
  m.gauge("ablation_incremental.churn_pair_fraction").set(kChurn);
  m.gauge("ablation_incremental.endpoints")
      .set(static_cast<double>(inst->layout.total_endpoints()));
  m.gauge("ablation_incremental.mean_dirty_fraction").set(mean_of(dirty_frac));
  m.gauge("ablation_incremental.mean_memo_hit_rate").set(mean_of(hit_rate));
  m.gauge("ablation_incremental.cold_median_s").set(cold_med);
  m.gauge("ablation_incremental.incremental_median_s").set(inc_med);
  m.gauge("ablation_incremental.median_speedup").set(speedup);
  m.gauge("ablation_incremental.cold_median_cpu_s").set(cold_cpu_med);
  m.gauge("ablation_incremental.incremental_median_cpu_s").set(inc_cpu_med);
  m.gauge("ablation_incremental.median_cpu_speedup").set(cpu_speedup);
  const auto to_json = [](const std::vector<double>& v) {
    obs::Json arr = obs::Json::array();
    for (double x : v) arr.push(obs::Json(x));
    return arr;
  };
  report.extra().set("cold_s", to_json(cold_s));
  report.extra().set("incremental_s", to_json(inc_s));
  report.extra().set("cold_cpu_s", to_json(cold_cpu_s));
  report.extra().set("incremental_cpu_s", to_json(inc_cpu_s));
  report.write();

  if (cpu_speedup < 2.0) {
    std::cerr << "FAIL: median CPU speedup " << cpu_speedup
              << "x is below the 2x acceptance bar\n";
    return 1;
  }
  return 0;
}

// Figure 9 reproduction: TE computation time vs. number of endpoints on
// the four topologies, for LP-all, NCFlow, TEAL and MegaTE.
//
// Paper headline: MegaTE handles a >= 20x larger topology at similar run
// time; LP-all/NCFlow/TEAL hit memory/time walls at tens of thousands of
// endpoints, while MegaTE finishes within tens of seconds at O(1M).
//
// Notes on honesty: runtimes here are single-core (the paper used a
// 24-thread Xeon + Gurobi + an A30 for TEAL), so absolute values differ;
// the reproduction target is the *ordering and the scaling wall*. A
// solver that declines an instance (the paper's OOM) prints "OOM/DNF".
// The default sweep caps the largest per-topology scale to keep the whole
// bench in minutes; set MEGATE_BENCH_FULL=1 for full Table-2 scale.

#include <iostream>

#include "bench_common.h"
#include "megate/te/baselines.h"
#include "megate/te/megate_solver.h"
#include "megate/util/stopwatch.h"

namespace {

using namespace megate;

struct SweepSpec {
  topo::TopologyKind kind;
  std::vector<std::uint64_t> endpoint_scales;
};

/// Runs past this wall-clock budget are marked "(over budget)".
constexpr double kBudgetS = 600.0;

struct Run {
  bool solved = false;
  double seconds = 0.0;
};

Run run_solver(te::Solver& solver, const te::TeProblem& problem) {
  util::Stopwatch sw;
  const te::TeSolution sol = solver.solve(problem);
  return Run{sol.solved, sw.elapsed_seconds()};
}

/// Table cell for one solver run: its time, or OOM/DNF when it declined.
std::string runtime_cell(const Run& r) {
  if (!r.solved) return "OOM/DNF";
  if (r.seconds > kBudgetS) {
    return util::Table::num(r.seconds, 2) + " (over budget)";
  }
  return util::Table::num(r.seconds, 2);
}

/// Exports one solver's runtime at a sweep point. A run that did not solve
/// gets `<key>_dnf = 1` and no `<key>_seconds`: the time it took to decline
/// is not a runtime.
void export_runtime(obs::MetricsRegistry& m, const std::string& point,
                    const std::string& key, const Run& r) {
  if (r.solved) {
    m.gauge(point + key + "_seconds").set(r.seconds);
  } else {
    m.gauge(point + key + "_dnf").set(1.0);
  }
}

}  // namespace

int main() {
  using namespace megate;
  bench::print_header(
      "Figure 9: TE algorithm run time (seconds) vs #endpoints",
      "Deltacom* @1130: LP-all 18 s, NCFlow/TEAL ~5 s; MegaTE solves "
      "22,600 endpoints in ~2 s (>20x); MegaTE solves O(1M) endpoints in "
      "tens of seconds where others OOM");

  bench::BenchReport report("fig09_runtime");
  const bool full = bench::full_scale();
  std::vector<SweepSpec> sweeps = {
      {topo::TopologyKind::kB4,
       full ? std::vector<std::uint64_t>{120, 1200, 12000, 120000}
            : std::vector<std::uint64_t>{120, 1200, 12000, 120000}},
      {topo::TopologyKind::kDeltacom,
       full ? std::vector<std::uint64_t>{1130, 11300, 113000, 1130000}
            : std::vector<std::uint64_t>{1130, 11300, 113000}},
      {topo::TopologyKind::kCogentco,
       full ? std::vector<std::uint64_t>{1970, 19700, 197000, 1970000}
            : std::vector<std::uint64_t>{1970, 19700}},
      {topo::TopologyKind::kTwan,
       full ? std::vector<std::uint64_t>{1000, 10000, 100000, 1000000}
            : std::vector<std::uint64_t>{1000, 10000, 100000}},
  };

  // Flow-count walls for the baselines, standing in for the paper's OOM
  // boundaries (endpoint-granular LPs / dense tensors stop being feasible).
  te::LpAllOptions lp_opt;
  lp_opt.max_flows = 30000;
  te::NcFlowOptions nc_opt;
  nc_opt.max_flows = 120000;
  te::TealOptions teal_opt;
  teal_opt.max_flows = 120000;

  for (const SweepSpec& sweep : sweeps) {
    util::Table t(std::string("run time on ") + topo::to_string(sweep.kind));
    t.header({"endpoints", "flows", "LP-all", "NCFlow", "TEAL", "MegaTE",
              "MegaTE stage1/stage2"});
    bench::InstanceOptions iopt;
    auto inst = bench::make_instance(sweep.kind, sweep.endpoint_scales[0],
                                     iopt);
    for (std::uint64_t eps : sweep.endpoint_scales) {
      bench::rescale_instance(*inst, eps, iopt);
      const te::TeProblem problem = inst->problem();
      const std::uint64_t flows = inst->traffic.num_flows();

      te::LpAllSolver lp_all(lp_opt);
      te::NcFlowSolver ncflow(nc_opt);
      te::TealSolver teal(teal_opt);
      te::MegaTeOptions mega_opt;
      mega_opt.metrics = &report.metrics();  // stage/QoS timing histograms
      te::MegaTeSolver megate(mega_opt);

      const Run lp = run_solver(lp_all, problem);
      const Run nc = run_solver(ncflow, problem);
      const Run tl = run_solver(teal, problem);

      util::Stopwatch mega_sw;
      const te::SolveReport mega_report =
          megate.solve(problem, te::SolveContext{});
      const Run mega{mega_report.solution.solved, mega_sw.elapsed_seconds()};

      t.add_row({util::Table::with_commas(eps),
                 util::Table::with_commas(flows),
                 runtime_cell(lp), runtime_cell(nc), runtime_cell(tl),
                 runtime_cell(mega),
                 util::Table::num(mega_report.stage1_seconds, 2) + "/" +
                     util::Table::num(mega_report.stage2_seconds, 2)});

      const std::string point = std::string("fig09.") +
                                topo::to_string(sweep.kind) + ".eps" +
                                std::to_string(eps) + ".";
      auto& m = report.metrics();
      m.gauge(point + "flows").set(static_cast<double>(flows));
      export_runtime(m, point, "lp_all", lp);
      export_runtime(m, point, "ncflow", nc);
      export_runtime(m, point, "teal", tl);
      export_runtime(m, point, "megate", mega);
      if (mega.solved) {
        m.gauge(point + "megate_stage1_seconds")
            .set(mega_report.stage1_seconds);
        m.gauge(point + "megate_stage2_seconds")
            .set(mega_report.stage2_seconds);
      }
    }
    t.print(std::cout);
    std::cout << '\n';
  }

  std::cout << "Interpretation: LP-all/NCFlow/TEAL stop scaling "
               "(OOM/DNF) while MegaTE's contraction keeps the LP at site "
               "granularity and fans the endpoint work out to FastSSP.\n";
  if (!full) {
    std::cout << "(Set MEGATE_BENCH_FULL=1 for the full Table-2 scales, "
                 "including Deltacom* 1.13M / Cogentco* 1.97M.)\n";
  }
  return 0;
}

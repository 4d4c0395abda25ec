// Prediction frontier bench (ISSUE 10). Two questions, one bench:
//
//  A. §8 extension ablation ("TE with application-level statistics"):
//     solving each TE period on stale measurements vs EWMA-predicted
//     demands vs an oracle, with demand evolving as a noisy random walk
//     between periods (the original shape of this bench, retained).
//
//  B. The learned-allocation frontier: exact vs incremental-exact vs the
//     learned fast path (predict -> repair -> audit, te/learned.h) on
//     churn replays over Cogentco (2k endpoints, two churn rates) and
//     the hyper-scale Twan instance (100k endpoints, fig. 9's largest
//     topology). Per replay, the same interval sequence is solved by all
//     three lanes and the bench measures median wall-clock, satisfied
//     demand, audit violations, and the gate's accept/fallback
//     behaviour, including a deliberate distribution-shift interval
//     (flash crowd, demand x8) that must trip the drift guard and
//     recover the exact answer.
//
// check_metrics_json enforces the acceptance bars on the emitted JSON,
// each against the fastest exact lane (min of cold and incremental) of
// the same replay: learned_speedup_vs_fastest_exact >= 5 on Twan, where
// the learned lane claims its speed; learned_median_seconds <= 1.5x the
// fastest exact lane on every replay; and globally
// learned_satisfied_fraction >= 0.95, learned_violations == 0,
// shift_fallback == 1, shift_recovered == 1.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "megate/sim/period_sim.h"
#include "megate/te/checker.h"
#include "megate/te/megate_solver.h"
#include "megate/util/rng.h"

namespace {

using namespace megate;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Mean-reverting per-interval noise around the base matrix: every flow
/// gets an independent deterministic factor in [1-spread, 1+spread].
/// Noise is around the *base* (not a random walk), so the EWMA predictor
/// tracks it and only a genuine distribution shift trips the drift guard.
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

tm::TrafficMatrix scale_matrix(const tm::TrafficMatrix& base,
                               double factor) {
  tm::TrafficMatrix out;
  for (const auto& [pair, flows] : base.pairs()) {
    for (tm::EndpointDemand d : flows) {
      d.demand_gbps *= factor;
      out.add(d);
    }
  }
  return out;
}

struct FrontierResult {
  double exact_median_s = 0.0;
  double incremental_median_s = 0.0;
  double learned_median_s = 0.0;

  double fastest_exact_median_s() const {
    return std::min(exact_median_s, incremental_median_s);
  }
  double learned_speedup() const {
    return fastest_exact_median_s() / std::max(1e-12, learned_median_s);
  }

  double learned_satisfied_fraction = 0.0;  ///< vs the incremental lane
  std::size_t violations = 0;               ///< capacity + hop budget
  std::size_t accepted = 0;
  std::size_t intervals = 0;
  bool shift_fell_back = false;
  bool shift_recovered = false;
  std::string shift_reason;
};

constexpr std::uint32_t kSrHopBudget = 6;
constexpr std::size_t kWarmup = 2;

/// `make_instance` with its tunnels rebuilt under the SR hop budget; the
/// offered load keeps make_instance's scaling.
std::unique_ptr<bench::Instance> make_budgeted_instance(
    topo::TopologyKind kind, std::uint64_t endpoints) {
  bench::InstanceOptions iopt;
  iopt.load = 0.6;
  auto inst = bench::make_instance(kind, endpoints, iopt);
  topo::TunnelOptions topt = bench::tunnel_options(iopt);
  topt.max_sr_hops = kSrHopBudget;
  inst->tunnels = topo::build_tunnels(inst->graph, topt);
  return inst;
}

/// Replays `intervals` jittered intervals of `inst` through the three
/// lanes (shared demand path), then the x8 flash-crowd interval through
/// the learned lane.
FrontierResult run_frontier(const bench::Instance& inst, double churn,
                            std::size_t intervals, std::uint64_t seed) {
  te::MegaTeSolver exact_solver;
  te::MegaTeSolver incremental_solver;
  te::MegaTeSolver learned_solver;

  te::SolveContext exact_ctx;
  te::SolveContext inc_ctx;
  inc_ctx.incremental = true;
  te::SolveContext learned_ctx;
  learned_ctx.incremental = true;  // fallbacks take the cheap exact path
  learned_ctx.learned = true;

  FrontierResult r;
  std::vector<double> t_exact, t_inc, t_learned;
  double sat_learned = 0.0, sat_inc = 0.0;
  for (std::size_t i = 0; i < kWarmup + intervals; ++i) {
    const tm::TrafficMatrix traffic =
        jitter_matrix(inst.traffic, seed * 1000 + i, churn);
    te::TeProblem problem = inst.problem();
    problem.traffic = &traffic;

    util::Stopwatch sw;
    const te::SolveReport re = exact_solver.solve(problem, exact_ctx);
    const double dt_exact = sw.elapsed_seconds();
    sw.reset();
    const te::SolveReport ri = incremental_solver.solve(problem, inc_ctx);
    const double dt_inc = sw.elapsed_seconds();
    sw.reset();
    const te::SolveReport rl = learned_solver.solve(problem, learned_ctx);
    const double dt_learned = sw.elapsed_seconds();

    if (i < kWarmup) continue;  // warm-up intervals train, don't score
    ++r.intervals;
    t_exact.push_back(dt_exact);
    t_inc.push_back(dt_inc);
    t_learned.push_back(dt_learned);
    sat_learned += rl.solution.satisfied_gbps;
    sat_inc += ri.solution.satisfied_gbps;
    if (rl.learned.accepted) ++r.accepted;

    // Audit every learned-lane solution (accepted or fallback): no link
    // over capacity, every satisfied flow assigned, no flow on a tunnel
    // over the SR hop budget.
    te::CheckOptions copts;
    copts.require_flow_assignment = true;
    const te::CheckResult chk =
        te::check_solution(problem, rl.solution, copts);
    if (!chk.ok) r.violations += chk.violations.size();
    r.violations +=
        bench::flows_over_hop_budget(problem, rl.solution, kSrHopBudget);
    (void)re;
  }
  r.exact_median_s = median(t_exact);
  r.incremental_median_s = median(t_inc);
  r.learned_median_s = median(t_learned);
  r.learned_satisfied_fraction = sat_inc > 0.0 ? sat_learned / sat_inc : 0.0;

  // Flash crowd: a x8 demand surge the trained model has never seen. The
  // drift guard must refuse the learned path and the returned (exact)
  // solution must match a from-scratch exact solve.
  const tm::TrafficMatrix shifted = scale_matrix(inst.traffic, 8.0);
  te::TeProblem shift_problem = inst.problem();
  shift_problem.traffic = &shifted;
  const te::SolveReport shift =
      learned_solver.solve(shift_problem, learned_ctx);
  r.shift_fell_back = shift.learned.attempted && !shift.learned.accepted;
  r.shift_reason = shift.learned.fallback_reason;
  const te::SolveReport ref = exact_solver.solve(shift_problem, exact_ctx);
  const double denom = std::max(1.0, ref.solution.satisfied_gbps);
  r.shift_recovered =
      std::abs(shift.solution.satisfied_gbps -
               ref.solution.satisfied_gbps) <= 1e-6 * denom;
  return r;
}

void report_frontier(bench::BenchReport& report, const std::string& topo,
                     double churn, const FrontierResult& r) {
  util::Table t("frontier @ " + topo + ", churn spread " +
                util::Table::num(churn, 2));
  const double fastest = r.fastest_exact_median_s();
  t.header({"lane", "median solve (s)", "speedup vs fastest exact"});
  t.add_row({"exact (cold)", util::Table::num(r.exact_median_s, 4),
             util::Table::num(fastest / std::max(1e-12, r.exact_median_s),
                              2)});
  t.add_row({"incremental-exact", util::Table::num(r.incremental_median_s, 4),
             util::Table::num(
                 fastest / std::max(1e-12, r.incremental_median_s), 2)});
  t.add_row({"learned", util::Table::num(r.learned_median_s, 4),
             util::Table::num(r.learned_speedup(), 2)});
  t.print(std::cout);
  std::cout << "  accepted " << r.accepted << "/" << r.intervals
            << " intervals, satisfied fraction vs incremental "
            << util::Table::num(r.learned_satisfied_fraction, 4)
            << ", audit violations " << r.violations << "\n  flash crowd: "
            << (r.shift_fell_back
                    ? "fell back (" + r.shift_reason + ")"
                    : "NOT refused")
            << ", exactness " << (r.shift_recovered ? "recovered" : "LOST")
            << "\n";

  const std::string churn_tag =
      std::to_string(static_cast<int>(std::lround(churn * 100)));
  const std::string stem =
      "ablation_prediction." + topo + ".churn" + churn_tag + ".";
  auto& m = report.metrics();
  m.gauge(stem + "exact_median_seconds").set(r.exact_median_s);
  m.gauge(stem + "incremental_median_seconds").set(r.incremental_median_s);
  m.gauge(stem + "learned_median_seconds").set(r.learned_median_s);
  m.gauge(stem + "learned_speedup_vs_fastest_exact").set(r.learned_speedup());
  m.gauge(stem + "learned_satisfied_fraction")
      .set(r.learned_satisfied_fraction);
  m.gauge(stem + "learned_accept_rate")
      .set(r.intervals > 0
               ? static_cast<double>(r.accepted) /
                     static_cast<double>(r.intervals)
               : 0.0);
  m.gauge(stem + "violations")
      .set(static_cast<double>(r.violations));
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: demand knowledge + learned-allocation frontier",
      "paper §8 (application-level statistics) and ROADMAP item 3 "
      "(learning-accelerated allocation; Teal in PAPERS.md)");

  bench::BenchReport report("ablation_prediction");

  // ---- A. Knowledge ablation (stale vs EWMA vs oracle) ----------------
  {
    bench::InstanceOptions iopt;
    iopt.load = 0.6;
    auto inst = bench::make_instance(topo::TopologyKind::kB4, 3000, iopt);

    sim::PeriodSimOptions opt;
    opt.periods = 10;
    opt.jitter_sigma = 0.45;
    opt.seed = 11;

    util::Table t("realized satisfied demand per period (same demand path)");
    t.header({"period", "stale", "EWMA-predicted", "oracle",
              "stale MAPE", "EWMA MAPE"});
    auto stale = sim::run_period_simulation(
        inst->graph, inst->tunnels, inst->traffic,
        sim::DemandKnowledge::kStale, opt);
    auto pred = sim::run_period_simulation(
        inst->graph, inst->tunnels, inst->traffic,
        sim::DemandKnowledge::kPredicted, opt);
    auto oracle = sim::run_period_simulation(
        inst->graph, inst->tunnels, inst->traffic,
        sim::DemandKnowledge::kOracle, opt);

    double m_stale = 0, m_pred = 0, m_oracle = 0;
    for (std::size_t p = 0; p < opt.periods; ++p) {
      t.add_row(
          {util::Table::num(p),
           util::Table::num(100 * stale[p].realized_satisfied(), 1) + "%",
           util::Table::num(100 * pred[p].realized_satisfied(), 1) + "%",
           util::Table::num(100 * oracle[p].realized_satisfied(), 1) + "%",
           util::Table::num(stale[p].prediction_mape, 2),
           util::Table::num(pred[p].prediction_mape, 2)});
      m_stale += stale[p].realized_satisfied();
      m_pred += pred[p].realized_satisfied();
      m_oracle += oracle[p].realized_satisfied();
    }
    t.print(std::cout);
    const double n = static_cast<double>(opt.periods);
    auto& m = report.metrics();
    m.gauge("ablation_prediction.stale_mean_satisfied").set(m_stale / n);
    m.gauge("ablation_prediction.ewma_mean_satisfied").set(m_pred / n);
    m.gauge("ablation_prediction.oracle_mean_satisfied").set(m_oracle / n);
    std::cout << "\nMeans: stale " << util::Table::num(100 * m_stale / n, 1)
              << "%, EWMA " << util::Table::num(100 * m_pred / n, 1)
              << "%, oracle " << util::Table::num(100 * m_oracle / n, 1)
              << "%.\nExpected shape: oracle >= EWMA >= stale; the gap is "
                 "the value of application-level flow statistics that the "
                 "paper's future-work section points at.\n";
  }

  // ---- B. Learned-allocation frontier ---------------------------------
  std::cout << "\nLearned frontier: exact vs incremental-exact vs learned "
               "(predict -> repair -> audit), Cogentco and Twan churn "
               "replays.\n"
               "Each lane solves the same interval sequence; the learned "
               "lane is audited every interval and must refuse the final "
               "x8 flash-crowd interval.\n";

  double worst_satisfied = std::numeric_limits<double>::infinity();
  std::size_t total_violations = 0;
  bool all_shift_fell_back = true;
  bool all_shift_recovered = true;
  double twan_speedup = 0.0;
  const auto score = [&](const std::string& topo, double churn,
                         const FrontierResult& r) {
    report_frontier(report, topo, churn, r);
    worst_satisfied = std::min(worst_satisfied, r.learned_satisfied_fraction);
    total_violations += r.violations;
    all_shift_fell_back = all_shift_fell_back && r.shift_fell_back;
    all_shift_recovered = all_shift_recovered && r.shift_recovered;
  };

  {
    auto inst = make_budgeted_instance(topo::TopologyKind::kCogentco, 2000);
    for (double churn : {0.10, 0.30}) {
      score("Cogentco", churn, run_frontier(*inst, churn, 10, 77));
    }
  }
  {
    // Fig. 9's hyper-scale instance: the learned path's O(pairs x
    // tunnels) cost is where the frontier gap widens.
    auto inst = make_budgeted_instance(topo::TopologyKind::kTwan, 100000);
    const FrontierResult r = run_frontier(*inst, 0.20, 5, 78);
    score("Twan", 0.20, r);
    twan_speedup = r.learned_speedup();
  }

  // The acceptance bars (worst case across replays) — enforced by
  // tools/check_metrics_json wherever this JSON travels, together with
  // the per-replay speed bounds.
  auto& m = report.metrics();
  m.gauge("ablation_prediction.learned_satisfied_fraction")
      .set(worst_satisfied);
  m.gauge("ablation_prediction.learned_violations")
      .set(static_cast<double>(total_violations));
  m.gauge("ablation_prediction.shift_fallback")
      .set(all_shift_fell_back ? 1.0 : 0.0);
  m.gauge("ablation_prediction.shift_recovered")
      .set(all_shift_recovered ? 1.0 : 0.0);

  std::cout << "\nAcceptance: Twan speedup vs fastest exact >= 5 (got "
            << util::Table::num(twan_speedup, 1)
            << "), satisfied fraction >= 0.95 (got "
            << util::Table::num(worst_satisfied, 4)
            << "), violations == 0 (got " << total_violations
            << "), flash-crowd fallback "
            << (all_shift_fell_back ? "yes" : "NO") << ", recovery "
            << (all_shift_recovered ? "yes" : "NO") << ".\n";
  return 0;
}

// check_metrics_json — validates metrics JSON documents against the
// megate.metrics/1 schema (src/obs/include/megate/obs/json.h).
//
//   check_metrics_json FILE [FILE...]
//
// Exit code 0 when every file parses and validates, 1 otherwise (each
// violation is printed as "FILE: message"). ci.sh runs this over
// megate_cli --metrics-json output and every bench target's
// BENCH_<name>.json, so a schema drift fails the build instead of
// silently producing unreadable dashboards.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "megate/obs/json.h"

namespace {

/// Numeric gauge `name`, or null when it is missing. Every check below
/// gets the gauges object of a document that validate_metrics_json
/// accepted, so the object itself is always there.
const megate::obs::Json* gauge_of(const megate::obs::Json& gauges,
                                  const std::string& name) {
  const auto* g = gauges.find(name);
  return (g != nullptr && g->is_number()) ? g : nullptr;
}

/// Contract check beyond the generic schema: BENCH_ablation_stage1.json
/// must carry, per topology, the joint LP's objective, dual bound and
/// certified gap (1 - objective / dual_bound), with 0 <= gap <= 0.07 —
/// the default te::SiteLpOptions::packing_epsilon. The gap is
/// deterministic, so this contract cannot flake on timing. Returns the
/// violations found (empty == valid).
std::vector<std::string> check_stage1_gap(const megate::obs::Json& gauges) {
  constexpr double kMaxGap = 0.07;
  std::vector<std::string> violations;
  auto gauge = [&](const std::string& n) { return gauge_of(gauges, n); };
  // Topologies are discovered from the objective gauge rather than
  // hard-coded, so adding a topology to the bench cannot silently skip
  // the gap contract.
  const std::string suffix = ".joint_objective";
  std::size_t topologies = 0;
  for (const auto& [name, value] : gauges.members()) {
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    ++topologies;
    const std::string prefix = name.substr(0, name.size() - suffix.size());
    if (!value.is_number() || value.as_number() <= 0.0) {
      violations.push_back(name + " must be a positive number");
    }
    const std::string bound_key = prefix + ".joint_dual_bound";
    if (gauge(bound_key) == nullptr) {
      violations.push_back("missing gauge " + bound_key);
    }
    const std::string gap_key = prefix + ".joint_gap";
    const auto* gap = gauge(gap_key);
    if (gap == nullptr) {
      violations.push_back("missing gauge " + gap_key);
    } else if (!(gap->as_number() >= 0.0 && gap->as_number() <= kMaxGap)) {
      violations.push_back(gap_key + " = " +
                           std::to_string(gap->as_number()) +
                           " outside [0, 0.07] (the objective exceeds its "
                           "dual bound, or the certified gap is wider than "
                           "the packing epsilon)");
    }
  }
  if (topologies == 0) {
    violations.push_back("no <topo>.joint_objective gauges — stage-1 gap "
                         "contract missing");
  }
  return violations;
}

/// Contract check for BENCH_ablation_tunnels.json — the hop-budget
/// tunnel-selection frontier. Configurations are discovered from the
/// "<topo>.<backend>.budget<N>.tunnels" gauges. For every discovered
/// (topo, budget) the contract requires:
///   - both backends present (ksp AND centrality),
///   - hop_budget_violations == 0 (the bench counts, from each plan,
///     assigned flows on tunnels over the budget it built under),
///   - centrality satisfied_ratio >= ksp - 0.02 at finite budgets, and
///   - on Cogentco* at budgets <= 5, strictly fewer centrality tunnels
///     (the middlepoint stage must shrink stage 1's column count on a
///     sparse WAN, not merely tie it).
std::vector<std::string> check_ablation_tunnels(
    const megate::obs::Json& gauges) {
  std::vector<std::string> violations;
  auto gauge = [&](const std::string& n) { return gauge_of(gauges, n); };
  const std::string prefix = "ablation_tunnels.";
  const std::string backend = ".ksp.budget";
  const std::string tail = ".tunnels";
  std::size_t configs = 0;
  for (const auto& [name, value] : gauges.members()) {
    // Match "ablation_tunnels.<topo>.ksp.budget<N>.tunnels" and derive
    // the per-config key stems from it.
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    const std::size_t b = name.find(backend);
    if (b == std::string::npos) continue;
    if (name.size() <= tail.size() ||
        name.compare(name.size() - tail.size(), tail.size(), tail) != 0) {
      continue;
    }
    ++configs;
    const std::string topo = name.substr(prefix.size(), b - prefix.size());
    const std::string budget_str = name.substr(
        b + backend.size(), name.size() - tail.size() - b - backend.size());
    const std::uint32_t budget =
        static_cast<std::uint32_t>(std::stoul(budget_str));
    const std::string ksp = prefix + topo + ".ksp.budget" + budget_str + ".";
    const std::string cen =
        prefix + topo + ".centrality.budget" + budget_str + ".";
    const auto* cen_tunnels = gauge(cen + "tunnels");
    if (cen_tunnels == nullptr) {
      violations.push_back("missing gauge " + cen + "tunnels — centrality "
                           "backend absent for this config");
      continue;
    }
    for (const std::string& stem : {ksp, cen}) {
      const auto* viol = gauge(stem + "hop_budget_violations");
      if (viol == nullptr) {
        violations.push_back("missing gauge " + stem +
                             "hop_budget_violations");
      } else if (viol->as_number() != 0.0) {
        violations.push_back(stem + "hop_budget_violations must be 0 (a "
                             "planned tunnel exceeded the SR hop budget)");
      }
    }
    const auto* ksp_sat = gauge(ksp + "satisfied_ratio");
    const auto* cen_sat = gauge(cen + "satisfied_ratio");
    if (ksp_sat == nullptr || cen_sat == nullptr) {
      violations.push_back("missing satisfied_ratio gauge under " + ksp +
                           " or " + cen);
      continue;
    }
    if (budget != 0 && cen_sat->as_number() < ksp_sat->as_number() - 0.02) {
      violations.push_back(cen + "satisfied_ratio trails ksp by more than "
                           "0.02 at budget " + budget_str);
    }
    if (topo.compare(0, 8, "Cogentco") == 0 && budget != 0 && budget <= 5 &&
        cen_tunnels->as_number() >= value.as_number()) {
      violations.push_back(cen + "tunnels must be strictly fewer than ksp "
                           "on " + topo + " at budget " + budget_str);
    }
  }
  if (configs == 0) {
    violations.push_back("no ablation_tunnels.<topo>.ksp.budget<N>.tunnels "
                         "gauges — tunnel-selection frontier missing");
  }
  return violations;
}

/// Contract check for BENCH_online_churn.json — the online intra-interval
/// TE bench (DESIGN.md §14). The acceptance bars of the ISSUE ride in the
/// document so CI re-checks them wherever the JSON travels:
///   - the regret pair (regret_boundary_gbps / regret_patch_gbps) and the
///     three satisfied-demand series must be present,
///   - gap_recovered >= 0.8 (the allocator recovers at least 80% of the
///     boundary-only -> per-event-resolve satisfied-demand gap),
///   - patch_cost_ratio in (0, 0.1] (a patch costs under 10% of a full
///     solve per event), and
///   - violations == 0 (capacity, hop-budget, reservation-vs-demand and
///     unassigned-reservation audits all clean).
std::vector<std::string> check_online_churn(const megate::obs::Json& gauges) {
  std::vector<std::string> violations;
  auto gauge = [&](const std::string& n) { return gauge_of(gauges, n); };
  const std::string prefix = "online_churn.";
  for (const char* field :
       {"regret_boundary_gbps", "regret_patch_gbps",
        "satisfied_boundary_only_gbps", "satisfied_patch_only_gbps",
        "satisfied_resolve_gbps"}) {
    if (gauge(prefix + field) == nullptr) {
      violations.push_back("missing gauge " + prefix + field);
    }
  }
  const auto* gap = gauge(prefix + "gap_recovered");
  if (gap == nullptr) {
    violations.push_back("missing gauge " + prefix + "gap_recovered");
  } else if (gap->as_number() < 0.8) {
    violations.push_back(prefix + "gap_recovered must be >= 0.8 (the "
                         "online allocator left too much of the "
                         "satisfied-demand gap unrecovered)");
  }
  const auto* cost = gauge(prefix + "patch_cost_ratio");
  if (cost == nullptr) {
    violations.push_back("missing gauge " + prefix + "patch_cost_ratio");
  } else if (cost->as_number() <= 0.0 || cost->as_number() > 0.1) {
    violations.push_back(prefix + "patch_cost_ratio must be in (0, 0.1] "
                         "(a patch must cost under 10% of a full solve)");
  }
  const auto* viol = gauge(prefix + "violations");
  if (viol == nullptr) {
    violations.push_back("missing gauge " + prefix + "violations");
  } else if (viol->as_number() != 0.0) {
    violations.push_back(prefix + "violations must be 0 (a patched "
                         "solution broke a capacity/hop-budget/"
                         "reservation invariant)");
  }
  return violations;
}

/// Contract check for BENCH_micro_kvstore.json:
///   - the TE database's first-publish scaling: the per-key cost of
///     publishing 1M keys into an empty store is at most 2x the per-key
///     cost at 100k keys, both measured in the same run. A store that
///     applied a large batch before sizing its table for it would grow
///     this ratio with the key count;
///   - the agent poll's loopback round trips (VERSION and a 32-key
///     MULTI_GET) are measured: both gauges present and positive. They
///     carry no bound, since loopback latency on a VM drifts by tens of
///     percent.
std::vector<std::string> check_micro_kvstore(const megate::obs::Json& gauges) {
  std::vector<std::string> violations;
  for (const char* name : {"micro_kvstore.first_publish.us_per_key_100k",
                           "micro_kvstore.first_publish.us_per_key_1m",
                           "micro_kvstore.tcp.version_rtt_us",
                           "micro_kvstore.tcp.multi_get_us"}) {
    const auto* g = gauges.find(name);
    if (g == nullptr || !g->is_number() || g->as_number() <= 0.0) {
      violations.push_back(std::string("missing or non-positive gauge ") +
                           name);
    }
  }
  const std::string prefix = "micro_kvstore.first_publish.";
  const auto* ratio = gauges.find(prefix + "per_key_ratio_1m_vs_100k");
  if (ratio == nullptr || !ratio->is_number()) {
    violations.push_back("missing gauge " + prefix +
                         "per_key_ratio_1m_vs_100k");
  } else if (ratio->as_number() > 2.0) {
    violations.push_back(prefix + "per_key_ratio_1m_vs_100k must be <= 2 "
                         "(first-publish cost per key grows with the "
                         "table size)");
  }
  return violations;
}

/// Contract check for BENCH_micro_lp.json — the exact simplex's memory
/// and optimality:
///   - on the Cogentco*-bucket-sized LP, the simplex's peak stored entries
///     are at most 10% of the (rows+1)*(rows+cols+1) cells a dense tableau
///     holds (the tableau is sparse; a dense one fails this), and
///   - on both sample LPs the simplex objective is >= the packing
///     objective: the simplex is exact and the packing solve feasible.
/// Every gauge is deterministic, so the contract cannot flake on timing.
std::vector<std::string> check_micro_lp(const megate::obs::Json& gauges) {
  constexpr double kMaxPeakShare = 0.10;
  std::vector<std::string> violations;
  auto positive = [&](const std::string& n) -> const megate::obs::Json* {
    const auto* g = gauge_of(gauges, n);
    if (g == nullptr || g->as_number() <= 0.0) {
      violations.push_back("missing or non-positive gauge " + n);
      return nullptr;
    }
    return g;
  };
  const auto* peak = positive("micro_lp.bucket.peak_entries");
  const auto* cells = positive("micro_lp.bucket.tableau_cells");
  if (peak != nullptr && cells != nullptr &&
      peak->as_number() > kMaxPeakShare * cells->as_number()) {
    violations.push_back(
        "micro_lp.bucket.peak_entries must be <= 10% of "
        "micro_lp.bucket.tableau_cells (the simplex stores a dense "
        "tableau)");
  }
  for (const std::string prefix : {"micro_lp.", "micro_lp.bucket."}) {
    const auto* exact = positive(prefix + "simplex_objective");
    const auto* packing = positive(prefix + "packing_objective");
    if (exact != nullptr && packing != nullptr &&
        exact->as_number() < packing->as_number() * (1.0 - 1e-9)) {
      violations.push_back(prefix + "simplex_objective must be >= " +
                           prefix + "packing_objective (the exact optimum "
                           "lost to a feasible solution)");
    }
  }
  return violations;
}

/// Contract check for BENCH_fig12_failures.json — Fig. 12's shape.
/// Points are discovered from "fig12.eps<E>.fail<F>.megate_windowed".
///   - at every point, megate_windowed > ncflow_windowed (MegaTE's short
///     outage keeps more demand satisfied over the window), and
///   - for each failure count, the gap (megate - ncflow) grows with the
///     endpoint count: NCFlow's recompute time grows with scale, so its
///     outage eats more of the window. Each failure count needs at least
///     two scales.
std::vector<std::string> check_fig12(const megate::obs::Json& gauges) {
  std::vector<std::string> violations;
  auto gauge = [&](const std::string& n) { return gauge_of(gauges, n); };
  const std::string prefix = "fig12.eps";
  const std::string tail = ".megate_windowed";
  // failure count -> (endpoints -> gap)
  std::map<unsigned long, std::map<unsigned long, double>> gaps;
  for (const auto& [name, value] : gauges.members()) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.size() <= tail.size() ||
        name.compare(name.size() - tail.size(), tail.size(), tail) != 0) {
      continue;
    }
    const std::size_t fail = name.find(".fail", prefix.size());
    if (fail == std::string::npos) continue;
    const std::string stem = name.substr(0, name.size() - tail.size());
    const unsigned long endpoints =
        std::stoul(name.substr(prefix.size(), fail - prefix.size()));
    const unsigned long failures = std::stoul(stem.substr(fail + 5));
    const auto* ncflow = gauge(stem + ".ncflow_windowed");
    if (!value.is_number() || ncflow == nullptr) {
      violations.push_back("missing gauge " + stem + ".ncflow_windowed");
      continue;
    }
    if (!(value.as_number() > ncflow->as_number())) {
      violations.push_back(name + " must be > " + stem +
                           ".ncflow_windowed (MegaTE's faster recompute "
                           "must keep more demand satisfied)");
    }
    gaps[failures][endpoints] = value.as_number() - ncflow->as_number();
  }
  if (gaps.empty()) {
    violations.push_back("no fig12.eps<E>.fail<F>.megate_windowed gauges — "
                         "the failure experiment is missing");
  }
  for (const auto& [failures, by_scale] : gaps) {
    const std::string f = std::to_string(failures);
    if (by_scale.size() < 2) {
      violations.push_back("fail" + f + " has fewer than two endpoint "
                           "scales; the gap's growth cannot be checked");
      continue;
    }
    for (auto it = std::next(by_scale.begin()); it != by_scale.end(); ++it) {
      const auto prev = std::prev(it);
      if (!(it->second > prev->second)) {
        violations.push_back(
            "fig12 gap at fail" + f + " must grow with scale: eps" +
            std::to_string(it->first) + " " + std::to_string(it->second) +
            " <= eps" + std::to_string(prev->first) + " " +
            std::to_string(prev->second));
      }
    }
  }
  return violations;
}

/// Contract check for BENCH_ablation_prediction.json — the learned-
/// allocation frontier (DESIGN.md §15). Replays are discovered from
/// "<topo>.churn<P>.learned_speedup_vs_fastest_exact"; the fastest exact
/// lane of a replay is the lower of its cold and incremental medians.
///   - part A, the knowledge ablation, keeps its shape:
///     oracle_mean_satisfied >= ewma_mean_satisfied >= stale_mean_satisfied;
///   - per replay, incremental_median_seconds <= 1.5x exact_median_seconds
///     (incremental bookkeeping must not cost more than a cold solve);
///   - per replay, learned_median_seconds <= 1.5x the fastest exact lane
///     (where the learned lane cannot win, it must not lose either);
///   - on the Twan replay, which must be present,
///     learned_speedup_vs_fastest_exact >= 5 (the scale where the learned
///     lane claims its speed);
///   - worst case across replays: learned_satisfied_fraction >= 0.95 of
///     the incremental-exact lane, learned_violations == 0 (capacity +
///     flow-assignment + hop-budget audits), and shift_fallback == 1 and
///     shift_recovered == 1 (the x8 flash-crowd interval tripped the gate
///     and the fallback matched the exact solve).
std::vector<std::string> check_ablation_prediction(
    const megate::obs::Json& gauges) {
  constexpr double kMaxSlowdown = 1.5;
  constexpr double kMinTwanSpeedup = 5.0;
  std::vector<std::string> violations;
  auto gauge = [&](const std::string& n) { return gauge_of(gauges, n); };
  const std::string prefix = "ablation_prediction.";
  // The original knowledge ablation must still be there, in its shape:
  // knowing the period-start truth bounds the EWMA estimate, which beats
  // solving on the last period's measurement.
  for (const char* field : {"stale_mean_satisfied", "ewma_mean_satisfied",
                            "oracle_mean_satisfied"}) {
    if (gauge(prefix + field) == nullptr) {
      violations.push_back("missing gauge " + prefix + field);
    }
  }
  const auto* stale = gauge(prefix + "stale_mean_satisfied");
  const auto* ewma = gauge(prefix + "ewma_mean_satisfied");
  const auto* oracle = gauge(prefix + "oracle_mean_satisfied");
  if (stale != nullptr && ewma != nullptr && oracle != nullptr) {
    if (oracle->as_number() < ewma->as_number()) {
      violations.push_back(prefix + "oracle_mean_satisfied must be >= " +
                           prefix + "ewma_mean_satisfied");
    }
    if (ewma->as_number() < stale->as_number()) {
      violations.push_back(prefix + "ewma_mean_satisfied must be >= " +
                           prefix + "stale_mean_satisfied");
    }
  }
  // Discover the per-replay frontier detail.
  const std::string detail = ".learned_speedup_vs_fastest_exact";
  bool twan_seen = false;
  for (const auto& [name, value] : gauges.members()) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.size() <= detail.size() ||
        name.compare(name.size() - detail.size(), detail.size(), detail) !=
            0 ||
        name.find(".churn") == std::string::npos) {
      continue;
    }
    const std::string stem =
        name.substr(0, name.size() - detail.size()) + ".";
    for (const char* field :
         {"exact_median_seconds", "incremental_median_seconds",
          "learned_median_seconds", "learned_satisfied_fraction",
          "learned_accept_rate", "violations"}) {
      if (gauge(stem + field) == nullptr) {
        violations.push_back("missing gauge " + stem + field);
      }
    }
    const auto* exact = gauge(stem + "exact_median_seconds");
    const auto* incremental = gauge(stem + "incremental_median_seconds");
    const auto* learned = gauge(stem + "learned_median_seconds");
    if (exact != nullptr && incremental != nullptr) {
      if (incremental->as_number() > kMaxSlowdown * exact->as_number()) {
        violations.push_back(stem + "incremental_median_seconds must be <= "
                             "1.5x exact_median_seconds (incremental "
                             "solving costs more than a cold solve)");
      }
      const double fastest =
          std::min(exact->as_number(), incremental->as_number());
      if (learned != nullptr &&
          learned->as_number() > kMaxSlowdown * fastest) {
        violations.push_back(stem + "learned_median_seconds must be <= 1.5x "
                             "the fastest exact lane (the learned lane is "
                             "slower than the exact solve it replaces)");
      }
    }
    if (name.compare(prefix.size(), 4, "Twan") == 0) {
      twan_seen = true;
      if (!value.is_number() || value.as_number() < kMinTwanSpeedup) {
        violations.push_back(name + " must be >= 5 (the learned lane lost "
                             "its wall-clock edge over the fastest exact "
                             "lane at the scale where it claims speed)");
      }
    }
  }
  if (!twan_seen) {
    violations.push_back("no Twan.churn<P>" + detail +
                         " gauge — the Twan frontier replay is missing");
  }
  // Global acceptance bars.
  const auto* sat = gauge(prefix + "learned_satisfied_fraction");
  if (sat == nullptr) {
    violations.push_back("missing gauge " + prefix +
                         "learned_satisfied_fraction");
  } else if (sat->as_number() < 0.95) {
    violations.push_back(prefix + "learned_satisfied_fraction must be >= "
                         "0.95 of the incremental-exact lane");
  }
  const auto* viol = gauge(prefix + "learned_violations");
  if (viol == nullptr) {
    violations.push_back("missing gauge " + prefix + "learned_violations");
  } else if (viol->as_number() != 0.0) {
    violations.push_back(prefix + "learned_violations must be 0 (a "
                         "learned-lane solution broke a capacity/"
                         "assignment/hop-budget audit)");
  }
  for (const char* field : {"shift_fallback", "shift_recovered"}) {
    const auto* g = gauge(prefix + field);
    if (g == nullptr) {
      violations.push_back("missing gauge " + prefix + field);
    } else if (g->as_number() != 1.0) {
      violations.push_back(prefix + std::string(field) + " must be 1 (the "
                           "flash-crowd interval did not trip the gate / "
                           "recover the exact answer)");
    }
  }
  return violations;
}

/// Contract check for `megate_cli chaos`, whose every iteration runs
/// through ctrl::ControlIteration:
///   - span.ctrl.iteration, each layer's span under it
///     (topo.repair_tunnels, te.solve, te.check_solution,
///     ctrl.publish_solution, and te.online.rebase when the run rebased)
///     and ctrl.iteration.unattributed_s exist with one count per
///     iteration, and
///   - the layers' summed seconds are at most the iterations' (the spans
///     nest, so the slack only absorbs rounding).
std::vector<std::string> check_chaos(const megate::obs::Json& histograms) {
  const std::string iteration = "span.ctrl.iteration";
  std::vector<std::string> violations;
  auto field = [&](const std::string& name, const char* f) -> double {
    const auto* h = histograms.find(name);
    return h != nullptr ? h->find(f)->as_number() : -1.0;
  };
  const double count = field(iteration, "count");
  const std::string per_iteration =
      " must exist with the count of " + iteration + " (" +
      std::to_string(static_cast<long long>(count)) + ")";
  if (count <= 0.0) {
    return {"missing or empty histogram " + iteration +
            " (no iteration ran through the driver)"};
  }
  double layers_s = 0.0;
  for (const char* layer :
       {"/topo.repair_tunnels", "/te.solve", "/te.check_solution",
        "/ctrl.publish_solution", "/te.online.rebase"}) {
    const std::string name = iteration + layer;
    const double n = field(name, "count");
    // Only a run with demand churn binds an allocator to rebase.
    if (n < 0.0 && name.ends_with("/te.online.rebase")) continue;
    if (n != count) {
      violations.push_back(name + per_iteration);
      continue;
    }
    layers_s += field(name, "sum");
  }
  if (field("ctrl.iteration.unattributed_s", "count") != count) {
    violations.push_back("ctrl.iteration.unattributed_s" + per_iteration);
  }
  const double iteration_s = field(iteration, "sum");
  if (layers_s > iteration_s * (1.0 + 1e-9)) {
    violations.push_back("layer spans sum to " + std::to_string(layers_s) +
                         " s, more than " + iteration + "'s " +
                         std::to_string(iteration_s) + " s");
  }
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: check_metrics_json FILE [FILE...]\n";
    return 2;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string path = argv[i];
    std::ifstream in(path);
    if (!in) {
      std::cerr << path << ": cannot open\n";
      ++failures;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const auto doc = megate::obs::Json::parse(buf.str());
    if (!doc) {
      std::cerr << path << ": not valid JSON\n";
      ++failures;
      continue;
    }
    auto violations = megate::obs::validate_metrics_json(*doc);
    const auto* source = doc->find("source");
    if (violations.empty() && source != nullptr && source->is_string()) {
      const megate::obs::Json& gauges = *doc->find("gauges");
      if (source->as_string() == "bench/ablation_stage1") {
        violations = check_stage1_gap(gauges);
      } else if (source->as_string() == "bench/ablation_tunnels") {
        violations = check_ablation_tunnels(gauges);
      } else if (source->as_string() == "bench/online_churn") {
        violations = check_online_churn(gauges);
      } else if (source->as_string() == "bench/ablation_prediction") {
        violations = check_ablation_prediction(gauges);
      } else if (source->as_string() == "bench/micro_kvstore") {
        violations = check_micro_kvstore(gauges);
      } else if (source->as_string() == "bench/micro_lp") {
        violations = check_micro_lp(gauges);
      } else if (source->as_string() == "bench/fig12_failures") {
        violations = check_fig12(gauges);
      } else if (source->as_string() == "megate_cli chaos") {
        violations = check_chaos(*doc->find("histograms"));
      }
    }
    if (!violations.empty()) {
      for (const std::string& v : violations) {
        std::cerr << path << ": " << v << "\n";
      }
      ++failures;
      continue;
    }
    std::cout << path << ": ok\n";
  }
  return failures == 0 ? 0 : 1;
}

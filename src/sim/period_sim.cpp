#include "megate/sim/period_sim.h"

#include <cmath>
#include <unordered_map>

#include "megate/topo/failures.h"
#include "megate/util/rng.h"

namespace megate::sim {
namespace {

using FlowKey = std::pair<tm::EndpointId, tm::EndpointId>;
struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const noexcept {
    return std::hash<std::uint64_t>{}(k.first * 0x9E3779B97F4A7C15ULL ^
                                      k.second);
  }
};

std::uint64_t flow_seed(std::uint64_t seed, tm::EndpointId src,
                        tm::EndpointId dst) {
  std::uint64_t h = seed ^ 0x9E3779B97F4A7C15ULL;
  h ^= src + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= dst + (h << 6) + (h >> 2);
  h ^= h >> 31;
  return h;
}

/// Demand of one flow in one period: the base demand follows a slow
/// per-flow exponential trend; each period adds independent lognormal
/// noise on top (mean-reverting around the trend — applications have a
/// characteristic rate; what varies period to period is noise). Fully
/// deterministic in (seed, flow, period) and independent of container
/// iteration order.
double demand_at(double base, std::uint64_t seed, tm::EndpointId src,
                 tm::EndpointId dst, std::size_t period,
                 const PeriodSimOptions& opt) {
  const std::uint64_t h = flow_seed(seed, src, dst);
  util::Rng flow_rng(h);
  const double drift = flow_rng.normal(0.0, opt.drift_sigma);
  util::Rng period_rng(h ^ (0xD2B74407B1CE6E93ULL * (period + 1)));
  const double noise = period_rng.normal(0.0, opt.jitter_sigma);
  return base * std::exp(drift * static_cast<double>(period + 1) + noise);
}

/// Materializes period `period`'s actual traffic from the base matrix.
tm::TrafficMatrix materialize(const tm::TrafficMatrix& base,
                              std::size_t period,
                              const PeriodSimOptions& opt) {
  tm::TrafficMatrix out;
  for (const auto& [pair, flows] : base.pairs()) {
    for (const tm::EndpointDemand& f : flows) {
      tm::EndpointDemand d = f;
      d.demand_gbps =
          demand_at(f.demand_gbps, opt.seed, f.src, f.dst, period, opt);
      out.add(d);
    }
  }
  return out;
}

/// (src, dst) -> believed demand of every flow the solver assigned.
std::unordered_map<FlowKey, double, FlowKeyHash> reservations(
    const tm::TrafficMatrix& believed, const te::TeSolution& sol) {
  std::unordered_map<FlowKey, double, FlowKeyHash> out;
  for (const auto& [pair, alloc] : sol.pairs) {
    auto it = believed.pairs().find(pair);
    if (it == believed.pairs().end()) continue;
    const auto& flows = it->second;
    for (std::size_t i = 0;
         i < flows.size() && i < alloc.flow_tunnel.size(); ++i) {
      if (alloc.flow_tunnel[i] < 0) continue;
      // Several flows can share (src, dst); their reservations add up.
      out[FlowKey{flows[i].src, flows[i].dst}] += flows[i].demand_gbps;
    }
  }
  return out;
}

/// (src, dst) -> the online allocator's current reservations, looked up
/// against the evolved matrix for flow identities.
std::unordered_map<FlowKey, double, FlowKeyHash> allocator_reservations(
    const tm::TrafficMatrix& evolved, const te::OnlineAllocator& alloc) {
  std::unordered_map<FlowKey, double, FlowKeyHash> out;
  for (const auto& [pair, rv] : alloc.reservations()) {
    auto it = evolved.pairs().find(pair);
    if (it == evolved.pairs().end()) continue;
    const auto& flows = it->second;
    for (std::size_t i = 0; i < flows.size() && i < rv.size(); ++i) {
      if (rv[i] <= 0.0) continue;
      out[FlowKey{flows[i].src, flows[i].dst}] += rv[i];
    }
  }
  return out;
}

}  // namespace

const char* to_string(DemandKnowledge k) noexcept {
  switch (k) {
    case DemandKnowledge::kStale: return "stale (last period)";
    case DemandKnowledge::kPredicted: return "predicted (EWMA)";
    case DemandKnowledge::kOracle: return "oracle";
  }
  return "?";
}

std::vector<PeriodOutcome> run_period_simulation(
    topo::Graph& graph, const topo::TunnelSet& tunnels,
    const tm::TrafficMatrix& base, DemandKnowledge knowledge,
    const PeriodSimOptions& options) {
  tm::FlowPredictor predictor(tm::PredictorKind::kEwma, options.ewma_alpha);

  te::MegaTeOptions solver_options;
  solver_options.learned = options.learned_options;
  te::MegaTeSolver solver(solver_options);
  te::OnlineAllocator allocator(options.online_options);
  const bool churn = options.churn.enabled();
  const bool online = churn && options.online;
  std::vector<PeriodOutcome> outcomes;
  tm::TrafficMatrix previous = base;
  predictor.observe(previous);

  /// Failures currently in force, with the period they recover at.
  struct ActiveFault {
    std::vector<topo::FailureEvent> events;
    std::size_t recover_period;
  };
  std::vector<ActiveFault> active;

  for (std::size_t period = 0; period < options.periods; ++period) {
    // Recover faults whose window ended, then strike this period's.
    for (std::size_t i = 0; i < active.size();) {
      if (active[i].recover_period <= period) {
        topo::restore_failures(graph, active[i].events);
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    for (const PeriodLinkFault& f : options.link_faults) {
      if (f.period != period) continue;
      ActiveFault a;
      a.events = topo::inject_link_failures(graph, f.count, f.seed);
      a.recover_period = period + std::max<std::size_t>(1, f.duration_periods);
      active.push_back(std::move(a));
    }
    // Degraded periods solve on repaired tunnels (dead ones rebuilt
    // around the failures, surviving identities stable).
    topo::TunnelSet repaired;
    const topo::TunnelSet* period_tunnels = &tunnels;
    if (!active.empty()) {
      repaired = tunnels;
      topo::repair_tunnels(graph, repaired);
      period_tunnels = &repaired;
    }

    const tm::TrafficMatrix actual = materialize(base, period, options);

    // What the controller believes the next period looks like. Note the
    // oracle sees the *period-start* truth: intra-period churn is beyond
    // every boundary-solve knowledge model — that gap is exactly what
    // the online allocator closes.
    tm::TrafficMatrix believed;
    switch (knowledge) {
      case DemandKnowledge::kStale: believed = previous; break;
      case DemandKnowledge::kPredicted: believed = predictor.predict(); break;
      case DemandKnowledge::kOracle: believed = actual; break;
    }

    te::TeProblem problem;
    problem.graph = &graph;
    problem.tunnels = period_tunnels;
    problem.traffic = &believed;
    te::SolveContext sctx;
    sctx.incremental = options.incremental;
    sctx.learned = options.learned;
    const te::SolveReport solved = solver.solve(problem, sctx);
    const te::TeSolution& sol = solved.solution;

    PeriodOutcome out;
    out.period = period;
    out.solve_time_s = sol.solve_time_s;
    if (options.incremental) out.incremental = solved.incremental;
    if (options.learned) {
      out.learned_accepted = solved.learned.accepted;
      out.learned_fallback_reason = solved.learned.fallback_reason;
    }

    // The measured truth over the period: starts at `actual`, churns
    // through this period's event timeline.
    tm::TrafficMatrix evolving = actual;
    if (churn) {
      tm::ChurnOptions copt = options.churn;
      copt.seed = options.churn.seed ^
                  (0x9E3779B97F4A7C15ULL * (period + 1));
      const tm::DemandStream stream =
          tm::DemandStream::generate(actual, copt);
      if (online) allocator.rebase(problem, sol);
      for (const tm::DemandEvent& ev : stream.events()) {
        tm::DemandStream::apply(ev, evolving);
        ++out.churn_events;
        out.churn_delta_gbps += ev.delta_gbps();
        if (!online) continue;
        const te::PatchResult pr = allocator.apply(ev);
        out.online_admitted_gbps += pr.admitted_gbps;
        out.online_shed_gbps += pr.shed_gbps;
        if (pr.resolve_recommended) {
          // Drift crossed the threshold: early full re-solve on the
          // measured (evolved) truth, then keep patching from there.
          te::TeProblem mid = problem;
          mid.traffic = &evolving;
          const te::SolveReport re = solver.solve(mid, sctx);
          out.solve_time_s += re.solution.solve_time_s;
          allocator.rebase(mid, re.solution);
          ++out.online_resolves;
        }
      }
    }

    // Realized carriage against the measured truth.
    auto budget = online ? allocator_reservations(evolving, allocator)
                         : reservations(believed, sol);
    for (const auto& [pair, flows] : evolving.pairs()) {
      for (const tm::EndpointDemand& f : flows) {
        out.actual_total_gbps += f.demand_gbps;
        auto it = budget.find(FlowKey{f.src, f.dst});
        if (it == budget.end() || it->second <= 0.0) continue;
        const double carried = std::min(it->second, f.demand_gbps);
        out.carried_gbps += carried;
        it->second -= carried;
      }
    }
    if (knowledge == DemandKnowledge::kPredicted) {
      out.prediction_mape = predictor.mape(evolving);
    } else if (knowledge == DemandKnowledge::kStale) {
      tm::FlowPredictor last(tm::PredictorKind::kLastValue);
      last.observe(previous);
      out.prediction_mape = last.mape(evolving);
    }
    outcomes.push_back(out);

    predictor.observe(evolving);
    previous = evolving;
  }
  for (const ActiveFault& a : active) topo::restore_failures(graph, a.events);
  return outcomes;
}

}  // namespace megate::sim

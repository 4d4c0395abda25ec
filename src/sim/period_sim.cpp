#include "megate/sim/period_sim.h"

#include <cmath>
#include <unordered_map>

#include "megate/te/megate_solver.h"
#include "megate/tm/prediction.h"
#include "megate/util/rng.h"

namespace megate::sim {
namespace {

/// Deterministic per-flow trend (random walk drift), in log units.
constexpr double kDriftSigma = 0.08;
/// EWMA alpha for kPredicted.
constexpr double kEwmaAlpha = 0.4;

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
  const double drift = flow_rng.normal(0.0, kDriftSigma);
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
    const topo::Graph& graph, const topo::TunnelSet& tunnels,
    const tm::TrafficMatrix& base, DemandKnowledge knowledge,
    const PeriodSimOptions& options) {
  tm::FlowPredictor predictor(tm::PredictorKind::kEwma, kEwmaAlpha);

  te::MegaTeSolver solver;
  std::vector<PeriodOutcome> outcomes;
  tm::TrafficMatrix previous = base;
  predictor.observe(previous);

  for (std::size_t period = 0; period < options.periods; ++period) {
    const tm::TrafficMatrix actual = materialize(base, period, options);

    // What the controller believes the next period looks like.
    tm::TrafficMatrix believed;
    switch (knowledge) {
      case DemandKnowledge::kStale: believed = previous; break;
      case DemandKnowledge::kPredicted: believed = predictor.predict(); break;
      case DemandKnowledge::kOracle: believed = actual; break;
    }

    te::TeProblem problem;
    problem.graph = &graph;
    problem.tunnels = &tunnels;
    problem.traffic = &believed;
    const te::TeSolution sol = solver.solve(problem);

    PeriodOutcome out;
    out.period = period;
    out.solve_time_s = sol.solve_time_s;

    // Realized carriage against the period's truth.
    auto budget = reservations(believed, sol);
    for (const auto& [pair, flows] : actual.pairs()) {
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
      out.prediction_mape = predictor.mape(actual);
    } else if (knowledge == DemandKnowledge::kStale) {
      tm::FlowPredictor last(tm::PredictorKind::kLastValue);
      last.observe(previous);
      out.prediction_mape = last.mape(actual);
    }
    outcomes.push_back(out);

    predictor.observe(actual);
    previous = actual;
  }
  return outcomes;
}

}  // namespace megate::sim

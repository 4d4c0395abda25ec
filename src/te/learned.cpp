#include "megate/te/learned.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "megate/util/stopwatch.h"

namespace megate::te {
namespace {

constexpr double kPriorEps = 1e-3;

/// Sorted (src, dst) view over a matrix's pairs: the model is iterated in
/// this order everywhere (forward pass, SGD, quantization), which makes
/// allocate/observe deterministic regardless of PairMap hash order.
std::vector<const tm::TrafficMatrix::PairMap::value_type*> sorted_pairs(
    const tm::TrafficMatrix& traffic) {
  std::vector<const tm::TrafficMatrix::PairMap::value_type*> out;
  out.reserve(traffic.pairs().size());
  for (const auto& entry : traffic.pairs()) out.push_back(&entry);
  std::sort(out.begin(), out.end(), [](const auto* a, const auto* b) {
    if (a->first.src != b->first.src) return a->first.src < b->first.src;
    return a->first.dst < b->first.dst;
  });
  return out;
}

/// Numerically stable softmax of `logits` in place.
void softmax(std::vector<double>& logits) {
  double m = -std::numeric_limits<double>::infinity();
  for (double l : logits) m = std::max(m, l);
  double z = 0.0;
  for (double& l : logits) {
    l = std::exp(l - m);
    z += l;
  }
  for (double& l : logits) l /= z;
}

}  // namespace

LearnedAllocator::LearnedAllocator()
    : predictor_(tm::PredictorKind::kEwma, kEwmaAlpha) {
  // Feature 0 is log(prior + eps) with unit weight: before any SGD step
  // the softmax reproduces the per-pair prior splits (uniform for unseen
  // pairs), so a freshly seeded model is already a sane allocator.
  theta_.fill(0.0);
  theta_[0] = 1.0;
}

void LearnedAllocator::features(double prior_a, double weight,
                                std::size_t hops, double bottleneck,
                                double pair_demand, double qos1_fraction,
                                double surge, bool fp_changed,
                                std::array<double, kFeatures>& f) {
  f[0] = std::log(prior_a + kPriorEps);
  f[1] = 1.0 - weight;
  f[2] = std::log(bottleneck / (pair_demand + 1e-6) + kPriorEps);
  f[3] = -static_cast<double>(hops) / 8.0;
  f[4] = qos1_fraction * (1.0 - weight);
  f[5] = surge * f[0];
  f[6] = (fp_changed ? 1.0 : 0.0) * (1.0 - weight);
}

TeSolution LearnedAllocator::allocate(const TeProblem& problem) {
  if (!problem.valid()) throw std::invalid_argument("invalid TE problem");
  std::lock_guard lock(mu_);
  const topo::Graph& g = *problem.graph;
  const topo::TunnelSet& tunnels = *problem.tunnels;
  const tm::TrafficMatrix& traffic = *problem.traffic;

  util::Stopwatch clock;
  TeSolution sol;
  sol.solver_name = "MegaTE-learned";
  sol.total_demand_gbps = traffic.total_demand_gbps();
  sol.iterations = kRepairIterations;

  std::vector<double> capacity(g.num_links());
  for (topo::EdgeId e = 0; e < g.num_links(); ++e) {
    const topo::Link& l = g.link(e);
    capacity[e] = l.up ? l.capacity_gbps : 0.0;
  }
  kernel_.reset(capacity);

  const auto entries = sorted_pairs(traffic);

  // --- Forward pass: model splits -> rank-1 proposal tensor --------------
  // Every flow of a pair shares the pair's split fractions, and the repair
  // kernel's projection/refill preserve per-pair proportionality, so one
  // pseudo-flow carrying the pair's total demand represents the whole
  // pair exactly: the learned path is O(pairs x tunnels) through repair,
  // per-flow granularity returns at quantization.
  struct PairPlan {
    const tm::TrafficMatrix::PairMap::value_type* entry = nullptr;
    std::vector<std::size_t> usable;  ///< alive tunnel indices
    std::size_t kernel_row = 0;
  };
  std::vector<PairPlan> plans;
  plans.reserve(entries.size());
  std::vector<double> logits;
  std::array<double, kFeatures> f{};
  for (const auto* entry : entries) {
    const topo::SitePair pair = entry->first;
    const auto& flows = entry->second;
    const auto& ts = tunnels.tunnels(pair.src, pair.dst);

    auto& alloc = sol.pairs[pair];
    alloc.tunnel_alloc.assign(ts.size(), 0.0);
    alloc.flow_tunnel.assign(flows.size(), -1);

    PairPlan plan;
    plan.entry = entry;
    for (std::size_t t = 0; t < ts.size(); ++t) {
      if (ts[t].alive(g)) plan.usable.push_back(t);
    }
    if (plan.usable.empty()) continue;  // pair stays fully rejected

    double demand = 0.0;
    double qos1 = 0.0;
    for (const tm::EndpointDemand& d : flows) {
      demand += d.demand_gbps;
      if (d.qos == tm::QosClass::kClass1) qos1 += d.demand_gbps;
    }
    const double qos1_fraction = demand > 0.0 ? qos1 / demand : 0.0;

    const auto model_it = pairs_.find(pair);
    const PairModel* model =
        model_it != pairs_.end() && model_it->second.prior.size() == ts.size()
            ? &model_it->second
            : nullptr;
    const double uniform = 1.0 / static_cast<double>(ts.size());
    double surge = 0.0;
    bool fp_changed = true;
    if (model != nullptr) {
      if (model->demand_ewma > 1e-9) {
        surge = std::clamp(demand / model->demand_ewma, 0.0, 4.0) - 1.0;
      }
      fp_changed = tm::fingerprint_flows(flows) != model->fp;
    }

    logits.assign(plan.usable.size(), 0.0);
    for (std::size_t a = 0; a < plan.usable.size(); ++a) {
      const topo::Tunnel& t = ts[plan.usable[a]];
      double bottleneck = std::numeric_limits<double>::infinity();
      for (topo::EdgeId e : t.links) {
        bottleneck = std::min(bottleneck, capacity[e]);
      }
      const double prior_a =
          model != nullptr ? model->prior[plan.usable[a]] : uniform;
      features(prior_a, t.weight, t.links.size(), bottleneck, demand,
               qos1_fraction, surge, fp_changed, f);
      double l = 0.0;
      for (std::size_t k = 0; k < kFeatures; ++k) l += theta_[k] * f[k];
      logits[a] = l;
    }
    softmax(logits);

    plan.kernel_row = kernel_.begin_pair({&demand, 1});
    for (std::size_t a : plan.usable) {
      kernel_.add_tunnel(ts[a].links);
    }
    kernel_.finish_pair();
    std::span<double> x = kernel_.x(plan.kernel_row);
    for (std::size_t a = 0; a < plan.usable.size(); ++a) {
      x[a] = demand * logits[a];
    }
    plans.push_back(std::move(plan));
  }

  // --- Feasibility repair -------------------------------------------------
  kernel_.run(kRepairIterations);

  // --- Quantization: fractional splits -> indivisible flow assignments ---
  // Each repaired column is a tunnel budget the links can carry by
  // construction; packing whole flows within budgets therefore never
  // overloads a link. Flows that straddle the budgets go to a residual
  // top-up identical in spirit to the exact path's residual repair.
  std::vector<double> residual = capacity;
  struct Leftover {
    std::size_t plan_index;
    std::size_t flow_index;
    double demand;
  };
  std::vector<Leftover> leftovers;
  std::vector<double> budgets;
  std::vector<std::size_t> order;
  for (std::size_t pi = 0; pi < plans.size(); ++pi) {
    const PairPlan& plan = plans[pi];
    const auto& flows = plan.entry->second;
    const auto& ts =
        tunnels.tunnels(plan.entry->first.src, plan.entry->first.dst);
    PairAllocation& alloc = sol.pairs.find(plan.entry->first)->second;
    const std::span<const double> x = kernel_.x(plan.kernel_row);
    budgets.assign(x.begin(), x.end());
    order.resize(flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (flows[a].demand_gbps != flows[b].demand_gbps) {
        return flows[a].demand_gbps > flows[b].demand_gbps;
      }
      return a < b;  // deterministic tie-break
    });
    for (std::size_t i : order) {
      const double d = flows[i].demand_gbps;
      if (d <= 0.0) continue;
      std::size_t best = 0;
      for (std::size_t a = 1; a < budgets.size(); ++a) {
        if (budgets[a] > budgets[best]) best = a;
      }
      if (budgets[best] + 1e-9 < d) {
        leftovers.push_back({pi, i, d});
        continue;
      }
      const std::size_t t = plan.usable[best];
      alloc.flow_tunnel[i] = static_cast<std::int32_t>(t);
      alloc.tunnel_alloc[t] += d;
      budgets[best] -= d;
      for (topo::EdgeId e : ts[t].links) residual[e] -= d;
      sol.satisfied_gbps += d;
    }
  }
  std::sort(leftovers.begin(), leftovers.end(),
            [](const Leftover& a, const Leftover& b) {
              if (a.demand != b.demand) return a.demand > b.demand;
              if (a.plan_index != b.plan_index) {
                return a.plan_index < b.plan_index;
              }
              return a.flow_index < b.flow_index;
            });
  for (const Leftover& lo : leftovers) {
    const PairPlan& plan = plans[lo.plan_index];
    const auto& ts =
        tunnels.tunnels(plan.entry->first.src, plan.entry->first.dst);
    PairAllocation& alloc = sol.pairs.find(plan.entry->first)->second;
    for (std::size_t t : plan.usable) {  // ascending weight order
      bool fits = true;
      for (topo::EdgeId e : ts[t].links) {
        if (residual[e] < lo.demand) {
          fits = false;
          break;
        }
      }
      if (!fits) continue;
      alloc.flow_tunnel[lo.flow_index] = static_cast<std::int32_t>(t);
      alloc.tunnel_alloc[t] += lo.demand;
      for (topo::EdgeId e : ts[t].links) residual[e] -= lo.demand;
      sol.satisfied_gbps += lo.demand;
      break;
    }
  }

  // Working set: one assignment per flow plus the per-pair split tensors.
  sol.est_memory_bytes = traffic.num_flows() * sizeof(std::int32_t) +
                         tunnels.total_tunnels() * sizeof(double) * 2;
  sol.solve_time_s = clock.elapsed_seconds();
  return sol;
}

void LearnedAllocator::observe(const TeProblem& problem,
                               const TeSolution& exact) {
  if (!problem.valid()) throw std::invalid_argument("invalid TE problem");
  std::lock_guard lock(mu_);
  const topo::Graph& g = *problem.graph;
  const topo::TunnelSet& tunnels = *problem.tunnels;
  const tm::TrafficMatrix& traffic = *problem.traffic;
  const double alpha = kEwmaAlpha;

  predictor_.observe(traffic);

  std::vector<double> probs;
  std::vector<double> targets;
  std::vector<std::size_t> usable;
  for (const auto* entry : sorted_pairs(traffic)) {
    const topo::SitePair pair = entry->first;
    const auto& flows = entry->second;
    const auto& ts = tunnels.tunnels(pair.src, pair.dst);
    PairModel& model = pairs_[pair];
    if (model.prior.size() != ts.size()) {
      model.prior.assign(ts.size(),
                         ts.empty() ? 0.0
                                    : 1.0 / static_cast<double>(ts.size()));
    }

    double demand = 0.0;
    double qos1 = 0.0;
    for (const tm::EndpointDemand& d : flows) {
      demand += d.demand_gbps;
      if (d.qos == tm::QosClass::kClass1) qos1 += d.demand_gbps;
    }
    const double qos1_fraction = demand > 0.0 ? qos1 / demand : 0.0;
    double surge = 0.0;
    if (model.demand_ewma > 1e-9) {
      surge = std::clamp(demand / model.demand_ewma, 0.0, 4.0) - 1.0;
    }
    const tm::PairFingerprint fp_now = tm::fingerprint_flows(flows);
    const bool fp_changed = fp_now != model.fp;

    const auto exact_it = exact.pairs.find(pair);
    if (exact_it != exact.pairs.end() &&
        exact_it->second.tunnel_alloc.size() == ts.size() && !ts.empty()) {
      const std::vector<double>& ta = exact_it->second.tunnel_alloc;
      usable.clear();
      for (std::size_t t = 0; t < ts.size(); ++t) {
        if (ts[t].alive(g)) usable.push_back(t);
      }
      double sum_usable = 0.0;
      for (std::size_t t : usable) sum_usable += ta[t];
      if (!usable.empty() && sum_usable > 1e-9) {
        // One SGD step: cross-entropy between the model's current softmax
        // and the exact split, gradient sum_a (p_a - y_a) * f_a. Features
        // use the PRE-update prior — the same values allocate() would
        // have consumed this interval.
        probs.clear();
        targets.clear();
        std::vector<std::array<double, kFeatures>> feats(usable.size());
        for (std::size_t a = 0; a < usable.size(); ++a) {
          const topo::Tunnel& t = ts[usable[a]];
          double bottleneck = std::numeric_limits<double>::infinity();
          for (topo::EdgeId e : t.links) {
            const topo::Link& l = g.link(e);
            bottleneck =
                std::min(bottleneck, l.up ? l.capacity_gbps : 0.0);
          }
          features(model.prior[usable[a]], t.weight, t.links.size(),
                   bottleneck, demand, qos1_fraction, surge, fp_changed,
                   feats[a]);
          double logit = 0.0;
          for (std::size_t k = 0; k < kFeatures; ++k) {
            logit += theta_[k] * feats[a][k];
          }
          probs.push_back(logit);
          targets.push_back(ta[usable[a]] / sum_usable);
        }
        softmax(probs);
        for (std::size_t a = 0; a < usable.size(); ++a) {
          const double err = probs[a] - targets[a];
          for (std::size_t k = 0; k < kFeatures; ++k) {
            theta_[k] -= kLearningRate * err * feats[a][k];
          }
        }
      }
      double sum_full = 0.0;
      for (double v : ta) sum_full += v;
      if (sum_full > 1e-9) {
        for (std::size_t t = 0; t < ts.size(); ++t) {
          model.prior[t] =
              (1.0 - alpha) * model.prior[t] + alpha * ta[t] / sum_full;
        }
      }
    }

    model.demand_ewma = model.demand_ewma <= 1e-9
                            ? demand
                            : (1.0 - alpha) * model.demand_ewma +
                                  alpha * demand;
    model.fp = fp_now;
  }

  const double total = exact.total_demand_gbps;
  const double ratio = total > 0.0 ? exact.satisfied_gbps / total : 0.0;
  exact_satisfied_frac_ = observations_ == 0
                              ? ratio
                              : (1.0 - alpha) * exact_satisfied_frac_ +
                                    alpha * ratio;
  ++observations_;
}

std::size_t LearnedAllocator::observations() const {
  std::lock_guard lock(mu_);
  return observations_;
}

double LearnedAllocator::exact_satisfied_fraction() const {
  std::lock_guard lock(mu_);
  return exact_satisfied_frac_;
}

double LearnedAllocator::drift_mape(const tm::TrafficMatrix& traffic) const {
  std::lock_guard lock(mu_);
  return predictor_.mape(traffic);
}

std::array<double, LearnedAllocator::kFeatures> LearnedAllocator::theta()
    const {
  std::lock_guard lock(mu_);
  return theta_;
}

}  // namespace megate::te

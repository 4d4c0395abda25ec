#include "megate/te/online_allocator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "megate/obs/metrics.h"

namespace megate::te {
namespace {

constexpr double kTiny = 1e-9;

}  // namespace

void OnlineAllocator::rebase(const TeProblem& problem,
                             const TeSolution& solution) {
  if (!problem.valid()) {
    throw std::invalid_argument("OnlineAllocator::rebase: invalid problem");
  }
  std::lock_guard<std::mutex> lock(mu_);
  graph_ = problem.graph;
  tunnels_ = problem.tunnels;
  sol_ = solution;
  reserved_.clear();
  residual_.assign(graph_->num_links(), 0.0);
  for (topo::EdgeId e = 0; e < graph_->num_links(); ++e) {
    residual_[e] = graph_->link(e).capacity_gbps;
  }

  double satisfied = 0.0;
  for (const auto& [pair, flows] : problem.traffic->pairs()) {
    auto it = sol_.pairs.find(pair);
    if (it == sol_.pairs.end()) {
      // Every flow of the pair was rejected by the solve: patchable from
      // an empty allocation.
      reserved_[pair].assign(flows.size(), 0.0);
      continue;
    }
    PairAllocation& pa = it->second;
    if (pa.flow_tunnel.empty() && !flows.empty()) {
      throw std::invalid_argument(
          "OnlineAllocator::rebase: solution lacks per-flow assignments "
          "for a pair with flows (fractional solvers are not patchable)");
    }
    const auto& tuns = tunnels_->tunnels(pair.src, pair.dst);
    std::vector<double>& rv = reserved_[pair];
    rv.assign(flows.size(), 0.0);
    if (pa.tunnel_alloc.size() < tuns.size()) {
      pa.tunnel_alloc.resize(tuns.size(), 0.0);
    }
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const std::int32_t t =
          i < pa.flow_tunnel.size() ? pa.flow_tunnel[i] : -1;
      if (t < 0) continue;
      const double gbps = flows[i].demand_gbps;
      if (gbps <= 0.0) continue;
      rv[i] = gbps;
      satisfied += gbps;
      reserve_on(tuns[static_cast<std::size_t>(t)].links, gbps);
    }
  }
  sol_.satisfied_gbps = satisfied;
  sol_.total_demand_gbps = problem.traffic->total_demand_gbps();
  base_total_gbps_ = sol_.total_demand_gbps;
  drift_gbps_ = 0.0;
  shed_total_gbps_ = 0.0;
  has_base_ = true;
  if (options_.metrics != nullptr) {
    options_.metrics->counter("te.online.rebases").inc();
    options_.metrics->gauge("te.online.drift_fraction").set(0.0);
  }
}

bool OnlineAllocator::has_base() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return has_base_;
}

TeSolution OnlineAllocator::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sol_;
}

std::unordered_map<topo::SitePair, std::vector<double>, topo::SitePairHash>
OnlineAllocator::reservations_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reserved_;
}

double OnlineAllocator::drift_fraction() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_total_gbps_ > 0.0 ? drift_gbps_ / base_total_gbps_ : 0.0;
}

double OnlineAllocator::bottleneck(
    const std::vector<topo::EdgeId>& links) const {
  double bn = std::numeric_limits<double>::infinity();
  for (topo::EdgeId e : links) bn = std::min(bn, residual_[e]);
  return bn;
}

void OnlineAllocator::reserve_on(const std::vector<topo::EdgeId>& links,
                                 double gbps) {
  for (topo::EdgeId e : links) residual_[e] -= gbps;
}

PatchResult OnlineAllocator::apply(const tm::DemandEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!has_base_) {
    throw std::logic_error("OnlineAllocator::apply before rebase");
  }
  PatchResult result;

  // Residual capacity goes to the highest class first: process the
  // event's changes in QoS priority order (stable within a class).
  std::vector<std::size_t> order(event.changes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return static_cast<int>(event.changes[a].qos) <
                            static_cast<int>(event.changes[b].qos);
                   });

  for (std::size_t oi : order) {
    const tm::FlowChange& c = event.changes[oi];
    const auto& tuns = tunnels_->tunnels(c.pair.src, c.pair.dst);
    PairAllocation& pa = sol_.pairs[c.pair];
    std::vector<double>& rv = reserved_[c.pair];
    if (pa.tunnel_alloc.size() < tuns.size()) {
      pa.tunnel_alloc.resize(tuns.size(), 0.0);
    }
    if (pa.flow_tunnel.size() <= c.flow_index) {
      pa.flow_tunnel.resize(c.flow_index + 1, -1);
    }
    if (rv.size() <= c.flow_index) rv.resize(c.flow_index + 1, 0.0);

    const double after = c.after_gbps;
    drift_gbps_ += std::abs(c.after_gbps - c.before_gbps);
    sol_.total_demand_gbps += c.after_gbps - c.before_gbps;

    double& res = rv[c.flow_index];
    std::int32_t& ft = pa.flow_tunnel[c.flow_index];

    if (after < res - kTiny) {
      // Shrink / departure: release immediately.
      const double delta = res - after;
      const auto t = static_cast<std::size_t>(ft);
      reserve_on(tuns[t].links, -delta);
      pa.tunnel_alloc[t] -= delta;
      sol_.satisfied_gbps -= delta;
      res = after;
      result.released_gbps += delta;
      ++result.flows_patched;
      if (after <= kTiny) {
        res = 0.0;
        ft = -1;
      }
      continue;
    }
    if (after <= res + kTiny) continue;  // no reservation change needed

    // Growth (or a brand-new flow): admit onto residual capacity.
    double need = after - res;
    double admitted = 0.0;
    bool moved = false;

    if (ft >= 0 && !tuns[static_cast<std::size_t>(ft)].alive(*graph_)) {
      // Standing tunnel died under us (mid-interval fault): release and
      // re-place the whole flow below.
      const auto t = static_cast<std::size_t>(ft);
      reserve_on(tuns[t].links, -res);
      pa.tunnel_alloc[t] -= res;
      sol_.satisfied_gbps -= res;
      result.released_gbps += res;
      res = 0.0;
      ft = -1;
      need = after;
    }

    if (ft >= 0) {
      const auto t = static_cast<std::size_t>(ft);
      // 1. Top up on the standing tunnel.
      const double top = std::min(need, bottleneck(tuns[t].links));
      if (top > kTiny) {
        reserve_on(tuns[t].links, top);
        pa.tunnel_alloc[t] += top;
        res += top;
        admitted += top;
        need -= top;
      }
      // 2. Move the whole flow to another alive tunnel with room.
      if (need > kTiny) {
        const double committed = res;
        reserve_on(tuns[t].links, -committed);  // tentative release
        for (std::size_t t2 = 0; t2 < tuns.size(); ++t2) {
          if (t2 == t || !tuns[t2].alive(*graph_)) continue;
          if (bottleneck(tuns[t2].links) + kTiny < after) continue;
          reserve_on(tuns[t2].links, after);
          pa.tunnel_alloc[t] -= committed;
          pa.tunnel_alloc[t2] += after;
          admitted += after - committed;
          res = after;
          ft = static_cast<std::int32_t>(t2);
          need = 0.0;
          moved = true;
          ++result.flows_moved;
          break;
        }
        if (!moved) reserve_on(tuns[t].links, committed);  // put back
      }
    } else if (!tuns.empty()) {
      // Unassigned flow: first tunnel (ascending weight) that fits the
      // whole demand, else a partial reservation on the roomiest one.
      std::size_t best = tuns.size();
      double best_bn = 0.0;
      for (std::size_t t2 = 0; t2 < tuns.size(); ++t2) {
        if (!tuns[t2].alive(*graph_)) continue;
        const double bn = bottleneck(tuns[t2].links);
        if (bn + kTiny >= need) {
          best = t2;
          best_bn = bn;
          break;
        }
        if (bn > best_bn) {
          best = t2;
          best_bn = bn;
        }
      }
      const double take = best < tuns.size() ? std::min(need, best_bn) : 0.0;
      if (take > kTiny) {
        reserve_on(tuns[best].links, take);
        pa.tunnel_alloc[best] += take;
        res += take;
        admitted += take;
        need -= take;
        ft = static_cast<std::int32_t>(best);
      }
    }

    sol_.satisfied_gbps += admitted;
    result.admitted_gbps += admitted;
    if (admitted > kTiny || moved) ++result.flows_patched;
    if (need > kTiny) {
      result.shed_gbps += need;
      shed_total_gbps_ += need;
      ++result.flows_shed;
    }
  }

  result.drift_fraction =
      base_total_gbps_ > 0.0 ? drift_gbps_ / base_total_gbps_ : 0.0;
  result.resolve_recommended =
      options_.resolve_drift_fraction > 0.0 &&
      result.drift_fraction > options_.resolve_drift_fraction;

  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& m = *options_.metrics;
    m.counter("te.online.events").inc();
    m.counter("te.online.flows_patched").inc(result.flows_patched);
    m.counter("te.online.flows_moved").inc(result.flows_moved);
    m.counter("te.online.flows_shed").inc(result.flows_shed);
    if (result.resolve_recommended) {
      m.counter("te.online.resolve_recommended").inc();
    }
    m.histogram("te.online.event_admitted_gbps").observe(result.admitted_gbps);
    if (result.shed_gbps > 0.0) {
      m.histogram("te.online.event_shed_gbps").observe(result.shed_gbps);
    }
    m.gauge("te.online.drift_fraction").set(result.drift_fraction);
    m.gauge("te.online.shed_gbps").set(shed_total_gbps_);
  }
  return result;
}

}  // namespace megate::te

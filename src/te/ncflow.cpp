#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "megate/lp/packing.h"
#include "megate/te/baselines.h"
#include "megate/topo/clustering.h"
#include "megate/util/stopwatch.h"

namespace megate::te {
namespace {

/// Approximation parameter of every cluster-pair packing solve.
constexpr double kPackingEpsilon = 0.07;

/// Sequence of clusters a tunnel traverses (deduplicated consecutive).
std::vector<std::uint32_t> cluster_sequence(
    const topo::Graph& g, const std::vector<std::uint32_t>& cluster,
    const topo::Tunnel& t) {
  std::vector<std::uint32_t> seq;
  for (std::size_t i = 0; i < t.links.size(); ++i) {
    const topo::Link& l = g.link(t.links[i]);
    if (seq.empty() || seq.back() != cluster[l.src]) {
      seq.push_back(cluster[l.src]);
    }
    if (i + 1 == t.links.size() && seq.back() != cluster[l.dst]) {
      seq.push_back(cluster[l.dst]);
    }
  }
  return seq;
}

}  // namespace

TeSolution NcFlowSolver::solve(const TeProblem& problem) {
  if (!problem.valid()) throw std::invalid_argument("invalid TE problem");
  const topo::Graph& g = *problem.graph;
  const topo::TunnelSet& tunnels = *problem.tunnels;
  const tm::TrafficMatrix& traffic = *problem.traffic;

  util::Stopwatch clock;
  TeSolution sol;
  sol.solver_name = name();
  sol.total_demand_gbps = traffic.total_demand_gbps();

  const std::uint64_t num_flows = traffic.num_flows();
  if (num_flows > options_.max_flows) {
    sol.solved = false;
    sol.est_memory_bytes = num_flows * 3 * 48;
    return sol;
  }

  // Cluster count ~ cbrt(V): coarse enough that the static capacity
  // partition between cluster-pair subproblems stays mild (NCFlow's
  // published loss is a few percent), fine enough to contract the graph.
  const std::size_t num_clusters = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::ceil(std::cbrt(static_cast<double>(g.num_nodes())))));
  const std::vector<std::uint32_t> cluster =
      topo::cluster_sites(g, num_clusters);

  // Step 1: restrict every site pair to tunnels matching the cluster
  // sequence of its best (lowest-weight) alive tunnel — this is the
  // contraction: inside the cluster graph each commodity follows a single
  // cluster-level route.
  struct PairPlan {
    topo::SitePair pair;
    std::vector<std::size_t> allowed_tunnels;
    const std::vector<tm::EndpointDemand>* flows;
    std::uint64_t group;  // (cluster(src) << 32) | cluster(dst)
  };
  std::vector<PairPlan> plans;
  for (const auto& [pair, flows] : traffic.pairs()) {
    const auto& ts = tunnels.tunnels(pair.src, pair.dst);
    std::size_t best = ts.size();
    for (std::size_t t = 0; t < ts.size(); ++t) {
      if (ts[t].alive(g)) {
        best = t;
        break;
      }
    }
    if (best == ts.size()) continue;
    const auto ref_seq = cluster_sequence(g, cluster, ts[best]);
    PairPlan plan;
    plan.pair = pair;
    plan.flows = &flows;
    plan.group = (static_cast<std::uint64_t>(cluster[pair.src]) << 32) |
                 cluster[pair.dst];
    for (std::size_t t = 0; t < ts.size(); ++t) {
      if (ts[t].alive(g) &&
          cluster_sequence(g, cluster, ts[t]) == ref_seq) {
        plan.allowed_tunnels.push_back(t);
      }
    }
    plans.push_back(std::move(plan));
  }

  // Step 2: statically partition each link's capacity across groups in
  // proportion to the demand whose best tunnel crosses the link.
  std::unordered_map<std::uint64_t, std::vector<double>> group_caps;
  {
    std::vector<double> link_demand(g.num_links(), 0.0);
    std::unordered_map<std::uint64_t, std::vector<double>> group_demand;
    for (const PairPlan& plan : plans) {
      const auto& ts = tunnels.tunnels(plan.pair.src, plan.pair.dst);
      double d_k = 0.0;
      for (const auto& f : *plan.flows) d_k += f.demand_gbps;
      // Spread the pair's demand across its allowed tunnels weighted by
      // inverse tunnel weight (shorter tunnels attract more flow, like
      // the LP will do), so the per-link shares below both sum to exactly
      // 1 on every requested link and track actual usage closely.
      double wsum = 0.0;
      for (std::size_t t : plan.allowed_tunnels) {
        wsum += 1.0 / ts[t].weight;
      }
      auto& gd = group_demand[plan.group];
      if (gd.empty()) gd.assign(g.num_links(), 0.0);
      for (std::size_t t : plan.allowed_tunnels) {
        const double per_tunnel = d_k * (1.0 / ts[t].weight) / wsum;
        for (topo::EdgeId e : ts[t].links) {
          link_demand[e] += per_tunnel;
          gd[e] += per_tunnel;
        }
      }
    }
    for (auto& [grp, gd] : group_demand) {
      std::vector<double> caps(g.num_links(), 0.0);
      for (topo::EdgeId e = 0; e < g.num_links(); ++e) {
        const topo::Link& l = g.link(e);
        if (!l.up || l.capacity_gbps <= 0.0) continue;
        if (gd[e] > 0.0 && link_demand[e] > 0.0) {
          caps[e] = l.capacity_gbps * (gd[e] / link_demand[e]);
        }
      }
      group_caps[grp] = std::move(caps);
    }
  }

  // Step 3: per cluster-pair group, solve an endpoint-granular LP against
  // the group's capacity share. Groups are independent (parallelizable in
  // the original system; sequential here, the per-group time is what the
  // Fig. 9 bench reports).
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> groups;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    groups[plans[p].group].push_back(p);
  }
  std::size_t peak_nnz = 0;
  for (const auto& [grp, plan_ids] : groups) {
    const std::vector<double>& caps = group_caps[grp];
    lp::Model model;
    std::vector<std::size_t> link_row(g.num_links(), ~std::size_t{0});
    struct VarRef {
      std::size_t plan;
      std::size_t tunnel;
    };
    std::vector<VarRef> refs;
    auto capacity_row = [&](topo::EdgeId e) {
      if (link_row[e] == ~std::size_t{0}) {
        link_row[e] = model.add_constraint(std::max(caps[e], 0.0));
      }
      return link_row[e];
    };
    for (std::size_t p : plan_ids) {
      const PairPlan& plan = plans[p];
      const auto& ts = tunnels.tunnels(plan.pair.src, plan.pair.dst);
      for (const tm::EndpointDemand& f : *plan.flows) {
        if (f.demand_gbps <= 0.0) continue;
        const std::size_t demand_row = model.add_constraint(f.demand_gbps);
        for (std::size_t t : plan.allowed_tunnels) {
          bool dead = false;
          for (topo::EdgeId e : ts[t].links) {
            if (caps[e] <= 0.0) {
              dead = true;
              break;
            }
          }
          if (dead) continue;  // zero capacity share: tunnel unusable
          const double coef =
              std::max(1e-4, 1.0 - problem.epsilon * ts[t].weight);
          const std::size_t var = model.add_variable(coef);
          model.add_coefficient(demand_row, var, 1.0);
          for (topo::EdgeId e : ts[t].links) {
            model.add_coefficient(capacity_row(e), var, 1.0);
          }
          refs.push_back(VarRef{p, t});
        }
      }
    }
    if (model.num_variables() == 0) continue;
    peak_nnz = std::max(peak_nnz, model.num_nonzeros());
    lp::PackingOptions popt;
    popt.epsilon = kPackingEpsilon;
    lp::Solution lp_sol = lp::PackingSolver(popt).solve(model);
    sol.iterations += lp_sol.iterations;
    for (std::size_t j = 0; j < refs.size(); ++j) {
      const double v = lp_sol.x[j];
      if (v <= 0.0) continue;
      const PairPlan& plan = plans[refs[j].plan];
      auto& alloc = sol.pairs[plan.pair];
      if (alloc.tunnel_alloc.empty()) {
        alloc.tunnel_alloc.assign(
            tunnels.tunnels(plan.pair.src, plan.pair.dst).size(), 0.0);
      }
      alloc.tunnel_alloc[refs[j].tunnel] += v;
      sol.satisfied_gbps += v;
    }
  }

  sol.est_memory_bytes = peak_nnz * 16 + num_flows * 32;
  sol.solve_time_s = clock.elapsed_seconds();
  return sol;
}

}  // namespace megate::te

#include <stdexcept>

#include "megate/lp/packing.h"
#include "megate/lp/simplex.h"
#include "megate/te/baselines.h"
#include "megate/util/stopwatch.h"

namespace megate::te {

namespace {

/// Approximation parameter of the packing solve on large instances.
constexpr double kPackingEpsilon = 0.05;
/// The exact simplex runs while (rows+1)*(rows+vars+1) stays below this;
/// larger models go to the packing solver. It sizes the model, not the
/// simplex's memory.
constexpr std::size_t kMaxSimplexCells = 2'000'000;

}  // namespace

TeSolution LpAllSolver::solve(const TeProblem& problem) {
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
    // The paper reports out-of-memory for LP-all beyond tens of thousands
    // of endpoints; we refuse explicitly instead of thrashing.
    sol.solved = false;
    sol.est_memory_bytes = num_flows * 5 * 48;  // what we would have built
    return sol;
  }

  lp::Model model;
  std::vector<std::size_t> link_row(g.num_links(), ~std::size_t{0});
  for (topo::EdgeId e = 0; e < g.num_links(); ++e) {
    const topo::Link& l = g.link(e);
    if (!l.up || l.capacity_gbps <= 0.0) continue;
    link_row[e] = model.add_constraint(l.capacity_gbps);
  }

  // One demand row per endpoint flow; one variable per (flow, tunnel).
  struct VarRef {
    topo::SitePair pair;
    std::uint32_t tunnel;
  };
  std::vector<VarRef> refs;
  for (const auto& [pair, flows] : traffic.pairs()) {
    const auto& ts = tunnels.tunnels(pair.src, pair.dst);
    std::vector<std::size_t> usable;
    for (std::size_t t = 0; t < ts.size(); ++t) {
      bool ok = !ts[t].links.empty();
      for (topo::EdgeId e : ts[t].links) {
        if (link_row[e] == ~std::size_t{0}) {
          ok = false;
          break;
        }
      }
      if (ok) usable.push_back(t);
    }
    if (usable.empty()) continue;
    for (const tm::EndpointDemand& f : flows) {
      if (f.demand_gbps <= 0.0) continue;
      const std::size_t demand_row = model.add_constraint(f.demand_gbps);
      for (std::size_t t : usable) {
        const double coef =
            std::max(1e-4, 1.0 - problem.epsilon * ts[t].weight);
        const std::size_t var = model.add_variable(coef);
        model.add_coefficient(demand_row, var, 1.0);
        for (topo::EdgeId e : ts[t].links) {
          model.add_coefficient(link_row[e], var, 1.0);
        }
        refs.push_back(VarRef{pair, static_cast<std::uint32_t>(t)});
      }
    }
  }

  lp::Solution lp_sol;
  const std::size_t cells =
      (model.num_constraints() + 1) *
      (model.num_constraints() + model.num_variables() + 1);
  if (cells <= kMaxSimplexCells) {
    lp_sol = lp::SimplexSolver().solve(model);
    sol.est_memory_bytes = cells * sizeof(double);
  } else {
    lp::PackingOptions popt;
    popt.epsilon = kPackingEpsilon;
    lp_sol = lp::PackingSolver(popt).solve(model);
    sol.est_memory_bytes = model.num_nonzeros() * 16 +
                           model.num_variables() * 16 +
                           model.num_constraints() * 16;
  }
  sol.iterations = lp_sol.iterations;

  for (std::size_t j = 0; j < refs.size(); ++j) {
    const double v = lp_sol.x[j];
    if (v <= 0.0) continue;
    auto& alloc = sol.pairs[refs[j].pair];
    if (alloc.tunnel_alloc.empty()) {
      alloc.tunnel_alloc.assign(
          tunnels.tunnels(refs[j].pair.src, refs[j].pair.dst).size(), 0.0);
    }
    alloc.tunnel_alloc[refs[j].tunnel] += v;
    sol.satisfied_gbps += v;
  }
  sol.solve_time_s = clock.elapsed_seconds();
  return sol;
}

}  // namespace megate::te

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "megate/te/baselines.h"
#include "megate/util/stopwatch.h"

namespace megate::te {

TeSolution TealSolver::solve(const TeProblem& problem) {
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
    sol.est_memory_bytes = num_flows * 4 * sizeof(double) * 3;
    return sol;
  }

  // Dense allocation tensor: x[flow][tunnel], flattened per pair, owned by
  // the repair kernel's SoA arena. This is the TEAL shape — the GNN/ADMM
  // work on exactly this tensor on a GPU.
  std::vector<double> capacity(g.num_links());
  for (topo::EdgeId e = 0; e < g.num_links(); ++e) {
    const topo::Link& l = g.link(e);
    capacity[e] = l.up ? l.capacity_gbps : 0.0;
  }
  kernel_.reset(capacity);

  struct PairRef {
    topo::SitePair pair;
    const std::vector<tm::EndpointDemand>* flows;
    std::vector<std::size_t> alive;  // usable tunnel indices
  };
  std::vector<PairRef> refs;
  std::vector<double> demands;
  for (const auto& [pair, flows] : traffic.pairs()) {
    const auto& ts = tunnels.tunnels(pair.src, pair.dst);
    PairRef ref;
    ref.pair = pair;
    ref.flows = &flows;
    for (std::size_t t = 0; t < ts.size(); ++t) {
      if (ts[t].alive(g)) ref.alive.push_back(t);
    }
    if (ref.alive.empty()) continue;
    demands.resize(flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      demands[i] = flows[i].demand_gbps;
    }
    kernel_.begin_pair(demands);
    for (std::size_t a : ref.alive) kernel_.add_tunnel(ts[a].links);
    kernel_.finish_pair();
    refs.push_back(std::move(ref));
  }

  // --- "Forward pass": softmax over tunnel weights ----------------------
  std::vector<double> probs;
  for (std::size_t p = 0; p < refs.size(); ++p) {
    const PairRef& ref = refs[p];
    const auto& ts = tunnels.tunnels(ref.pair.src, ref.pair.dst);
    probs.assign(ref.alive.size(), 0.0);
    double z = 0.0;
    for (std::size_t a = 0; a < ref.alive.size(); ++a) {
      probs[a] = std::exp(-kSoftmaxTemperature *
                          (ts[ref.alive[a]].weight - 1.0));
      z += probs[a];
    }
    for (double& pr : probs) pr /= z;
    const std::span<double> x = kernel_.x(p);
    for (std::size_t i = 0; i < ref.flows->size(); ++i) {
      const double d = (*ref.flows)[i].demand_gbps;
      for (std::size_t a = 0; a < ref.alive.size(); ++a) {
        x[i * ref.alive.size() + a] = d * probs[a];
      }
    }
  }

  // --- ADMM-style capacity projection + refill --------------------------
  kernel_.run(kAdmmIterations);

  // --- Emit solution -----------------------------------------------------
  std::size_t dense_elems = 0;
  for (std::size_t p = 0; p < refs.size(); ++p) {
    const PairRef& ref = refs[p];
    const auto& ts = tunnels.tunnels(ref.pair.src, ref.pair.dst);
    auto& alloc = sol.pairs[ref.pair];
    alloc.tunnel_alloc.assign(ts.size(), 0.0);
    const std::span<const double> x = kernel_.x(p);
    dense_elems += x.size();
    for (std::size_t i = 0; i < ref.flows->size(); ++i) {
      for (std::size_t a = 0; a < ref.alive.size(); ++a) {
        const double v = x[i * ref.alive.size() + a];
        alloc.tunnel_alloc[ref.alive[a]] += v;
        sol.satisfied_gbps += v;
      }
    }
  }
  sol.iterations = kAdmmIterations;
  sol.est_memory_bytes = dense_elems * sizeof(double) * 2;
  sol.solve_time_s = clock.elapsed_seconds();
  return sol;
}

}  // namespace megate::te

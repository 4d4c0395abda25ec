#include "megate/te/site_lp.h"

#include <algorithm>
#include <cstdint>
#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "megate/lp/packing.h"
#include "megate/lp/simplex.h"
#include "megate/topo/clustering.h"
#include "megate/util/thread_pool.h"

namespace megate::te {

namespace {

constexpr std::size_t kNone = ~std::size_t{0};  // no row / no stamp yet

/// Relative slack of the presolve's implied-row test: a row is dropped
/// only when U_e + kImpliedSlack * U0_e <= c_e, where U0_e is U_e before
/// any pair was fixed. It covers the rounding of the running sums (each
/// term is at most U0_e, and every sum or subtraction adds ~1e-16 of it),
/// so a row that could bind is never dropped.
constexpr double kImpliedSlack = 1e-9;

/// Column profit 1 - epsilon * w_t (prefer shorter tunnels), clamped at a
/// small positive floor so very long tunnels stay usable.
double column_profit(const topo::Tunnel& t, double epsilon) {
  return std::max(1e-4, 1.0 - epsilon * t.weight);
}

}  // namespace

SiteLpResult solve_max_site_flow(
    const topo::Graph& g, const topo::TunnelSet& tunnels,
    const std::unordered_map<topo::SitePair, double, topo::SitePairHash>&
        site_demands,
    const std::vector<double>& capacity_override, double epsilon,
    const SiteLpOptions& options) {
  if (!capacity_override.empty() &&
      capacity_override.size() != g.num_links()) {
    throw std::invalid_argument(
        "capacity_override must have one entry per link");
  }
  const std::size_t num_links = g.num_links();

  // Live capacity per link; 0 for a down or full link, which gets no row
  // and makes every tunnel over it unusable.
  std::vector<double> cap(num_links, 0.0);
  std::size_t live_links = 0;
  for (topo::EdgeId e = 0; e < num_links; ++e) {
    const topo::Link& l = g.link(e);
    const double c = capacity_override.empty() ? l.capacity_gbps
                                               : capacity_override[e];
    if (l.up && c > 0.0) {
      cap[e] = c;
      ++live_links;
    }
  }

  // --- Presolve (DESIGN.md §16) -------------------------------------------
  // Pairs with demand and at least one usable column (alive, every link
  // live, within the hop budget), in site_demands order. Per pair: its
  // usable tunnel indices, its best column t* (highest profit, lowest index
  // on ties), and its distinct links e with a_{k,e}, the most times any one
  // of its columns crosses e, and whether t* crosses e.
  struct Pair {
    topo::SitePair id;
    double demand = 0.0;
    std::size_t best = 0;
    std::uint32_t cols_begin = 0, cols_end = 0;
    std::uint32_t links_begin = 0, links_end = 0;
    std::uint32_t rows_left = 0;  // t*'s distinct links that keep a row
  };
  std::vector<Pair> pairs;
  std::vector<std::uint32_t> cols;  // usable tunnel indices, per-pair slices
  std::vector<topo::EdgeId> pair_link;  // distinct links, per-pair slices
  std::vector<double> pair_mult;        // a_{k,e}, parallel to pair_link
  std::vector<char> on_best;            // t* crosses e, parallel to pair_link
  // U_e: sum of a_{k,e} * D_k over the pairs not (yet) fixed; users_e: the
  // number of such pairs.
  std::vector<double> usage(num_links, 0.0);
  std::vector<std::uint32_t> users(num_links, 0);
  // Per-link work arrays: the pair and the tunnel that last touched e, how
  // often that tunnel crosses e, and e's index in pair_link.
  std::vector<std::size_t> pair_stamp(num_links, kNone);
  std::vector<std::size_t> tunnel_stamp(num_links, kNone);
  std::vector<std::uint32_t> tunnel_count(num_links, 0);
  std::vector<std::uint32_t> slot(num_links, 0);
  std::size_t tunnel_id = 0;
  // star_begin[e + 1]: pairs whose t* crosses e (prefix-summed below).
  std::vector<std::uint32_t> star_begin(num_links + 1, 0);

  for (const auto& [pair, demand] : site_demands) {
    if (demand <= 0.0) continue;
    const auto& ts = tunnels.tunnels(pair.src, pair.dst);
    Pair p;
    p.id = pair;
    p.demand = demand;
    p.cols_begin = static_cast<std::uint32_t>(cols.size());
    p.links_begin = static_cast<std::uint32_t>(pair_link.size());
    const std::size_t k = pairs.size();
    double best_profit = -1.0;
    for (std::size_t t = 0; t < ts.size(); ++t) {
      const auto& links = ts[t].links;
      bool ok = !links.empty() &&
                (options.max_sr_hops == 0 ||
                 links.size() <= options.max_sr_hops);
      for (std::size_t i = 0; ok && i < links.size(); ++i) {
        ok = cap[links[i]] > 0.0;
      }
      if (!ok) continue;
      cols.push_back(static_cast<std::uint32_t>(t));
      const double profit = column_profit(ts[t], epsilon);
      if (profit > best_profit) {
        best_profit = profit;
        p.best = t;
      }
      ++tunnel_id;
      for (topo::EdgeId e : links) {
        if (tunnel_stamp[e] != tunnel_id) {
          tunnel_stamp[e] = tunnel_id;
          tunnel_count[e] = 0;
        }
        ++tunnel_count[e];
        if (pair_stamp[e] != k) {
          pair_stamp[e] = k;
          slot[e] = static_cast<std::uint32_t>(pair_link.size());
          pair_link.push_back(e);
          pair_mult.push_back(0.0);
          on_best.push_back(0);
        }
        double& a = pair_mult[slot[e]];
        a = std::max(a, static_cast<double>(tunnel_count[e]));
      }
    }
    p.cols_end = static_cast<std::uint32_t>(cols.size());
    if (p.cols_begin == p.cols_end) continue;
    p.links_end = static_cast<std::uint32_t>(pair_link.size());
    for (topo::EdgeId e : ts[p.best].links) on_best[slot[e]] = 1;
    for (std::uint32_t i = p.links_begin; i < p.links_end; ++i) {
      const topo::EdgeId e = pair_link[i];
      usage[e] += pair_mult[i] * demand;
      ++users[e];
      if (on_best[i]) {
        ++star_begin[e + 1];
        ++p.rows_left;
      }
    }
    pairs.push_back(p);
  }

  // star_pairs[star_begin[e] .. star_begin[e + 1]): the pairs whose t*
  // crosses e.
  for (topo::EdgeId e = 0; e < num_links; ++e) {
    star_begin[e + 1] += star_begin[e];
  }
  std::vector<std::uint32_t> star_pairs(star_begin[num_links]);
  {
    std::vector<std::uint32_t> fill(star_begin.begin(), star_begin.end() - 1);
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      for (std::uint32_t i = pairs[k].links_begin; i < pairs[k].links_end;
           ++i) {
        if (on_best[i]) {
          star_pairs[fill[pair_link[i]]++] = static_cast<std::uint32_t>(k);
        }
      }
    }
  }

  // Steps 2-3 as a worklist: drop every implied row; a pair whose t*
  // crosses only dropped rows is fixed at F_{k,t*} = D_k, which takes its
  // demand off the other links it could reach and may imply more rows.
  // Dropped rows stay dropped: fixing a pair only lowers U_e.
  const std::vector<double> usage0 = usage;
  std::vector<char> dropped(num_links, 0);
  std::vector<char> fixed(pairs.size(), 0);
  std::vector<topo::EdgeId> queue;
  auto try_drop = [&](topo::EdgeId e) {
    if (dropped[e] || cap[e] <= 0.0) return;
    if (users[e] != 0 && usage[e] + kImpliedSlack * usage0[e] > cap[e]) {
      return;
    }
    dropped[e] = 1;
    queue.push_back(e);
  };
  for (topo::EdgeId e = 0; e < num_links; ++e) try_drop(e);
  while (!queue.empty()) {
    const topo::EdgeId e = queue.back();
    queue.pop_back();
    for (std::uint32_t i = star_begin[e]; i < star_begin[e + 1]; ++i) {
      const std::uint32_t k = star_pairs[i];
      Pair& p = pairs[k];
      if (--p.rows_left != 0) continue;
      fixed[k] = 1;
      for (std::uint32_t j = p.links_begin; j < p.links_end; ++j) {
        const topo::EdgeId f = pair_link[j];
        usage[f] -= pair_mult[j] * p.demand;
        --users[f];
        try_drop(f);
      }
    }
  }

  // --- Step 4: the reduced LP over the remaining pairs and rows ---------
  lp::Model model;
  std::vector<std::size_t> link_row(num_links, kNone);
  for (topo::EdgeId e = 0; e < num_links; ++e) {
    if (cap[e] > 0.0 && !dropped[e]) link_row[e] = model.add_constraint(cap[e]);
  }

  SiteLpResult result;
  result.rows_dropped = live_links - model.num_constraints();
  double fixed_objective = 0.0;
  std::vector<std::size_t> var_pair;  // pair index per LP variable
  std::vector<std::uint32_t> var_tunnel;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const Pair& p = pairs[k];
    const auto& ts = tunnels.tunnels(p.id.src, p.id.dst);
    if (fixed[k]) {
      std::vector<double>& alloc = result.alloc[p.id];
      alloc.assign(ts.size(), 0.0);
      alloc[p.best] = p.demand;
      fixed_objective += column_profit(ts[p.best], epsilon) * p.demand;
      ++result.pairs_fixed;
      continue;
    }
    const std::size_t demand_row = model.add_constraint(p.demand);
    for (std::uint32_t c = p.cols_begin; c < p.cols_end; ++c) {
      const std::uint32_t t = cols[c];
      const std::size_t var = model.add_variable(column_profit(ts[t], epsilon));
      model.add_coefficient(demand_row, var, 1.0);
      for (topo::EdgeId e : ts[t].links) {
        if (link_row[e] != kNone) model.add_coefficient(link_row[e], var, 1.0);
      }
      var_pair.push_back(k);
      var_tunnel.push_back(t);
    }
  }

  result.num_variables = model.num_variables();
  result.num_constraints = model.num_constraints();
  result.objective = fixed_objective;
  result.dual_bound = fixed_objective;
  if (model.num_variables() == 0) {
    result.status = lp::Status::kOptimal;
    return result;
  }

  // Backend choice: exact simplex when the dense tableau is small enough.
  const std::size_t cells = (model.num_constraints() + 1) *
                            (model.num_constraints() +
                             model.num_variables() + 1);
  bool use_simplex = options.backend == SiteLpOptions::Backend::kSimplex;
  if (options.backend == SiteLpOptions::Backend::kAuto) {
    use_simplex = cells <= options.max_simplex_cells;
  }

  lp::Solution lp_sol;
  double lp_bound = 0.0;
  if (use_simplex) {
    lp::SimplexSolver solver;
    lp_sol = solver.solve(model);
    result.used_simplex = true;
    lp_bound = lp_sol.objective;
  } else {
    lp::PackingOptions popt;
    popt.epsilon = options.packing_epsilon;
    lp::PackingSolver solver(popt);
    lp_sol = solver.solve(model);
    lp_bound = solver.last_dual_bound();
  }

  result.status = lp_sol.status;
  result.objective += lp_sol.objective;
  result.dual_bound += lp_bound;
  result.iterations = lp_sol.iterations;

  for (std::size_t j = 0; j < var_pair.size(); ++j) {
    const Pair& p = pairs[var_pair[j]];
    auto& alloc = result.alloc[p.id];
    if (alloc.empty()) {
      alloc.assign(tunnels.tunnels(p.id.src, p.id.dst).size(), 0.0);
    }
    alloc[var_tunnel[j]] = std::max(0.0, lp_sol.x[j]);
  }
  return result;
}

SiteLpResult solve_max_site_flow_clustered(
    const topo::Graph& g, const topo::TunnelSet& tunnels,
    const std::unordered_map<topo::SitePair, double, topo::SitePairHash>&
        site_demands,
    const std::vector<double>& capacity_override, double epsilon,
    std::size_t clusters, const SiteLpOptions& options,
    std::size_t threads, util::ThreadPool* pool) {
  if (clusters < 2) {
    return solve_max_site_flow(g, tunnels, site_demands, capacity_override,
                               epsilon, options);
  }
  const std::vector<std::uint32_t> cluster =
      topo::cluster_sites(g, clusters);

  auto base_capacity = [&](topo::EdgeId e) {
    const topo::Link& l = g.link(e);
    if (!l.up) return 0.0;
    return capacity_override.empty() ? l.capacity_gbps
                                     : capacity_override[e];
  };

  // Bucket site pairs by cluster pair and estimate each bucket's per-link
  // usage (demand spread across alive tunnels by inverse weight) so the
  // static capacity partition tracks what the joint LP would do.
  struct Bucket {
    std::unordered_map<topo::SitePair, double, topo::SitePairHash> demands;
    std::vector<double> estimated;  // per-link estimated usage
    std::size_t nnz = 0;  // LP nonzeros before the presolve: its size
  };
  std::unordered_map<std::uint64_t, Bucket> buckets;
  std::vector<double> total_estimated(g.num_links(), 0.0);
  for (const auto& [pair, demand] : site_demands) {
    if (demand <= 0.0) continue;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(cluster[pair.src]) << 32) |
        cluster[pair.dst];
    Bucket& b = buckets[key];
    if (b.estimated.empty()) b.estimated.assign(g.num_links(), 0.0);
    b.demands[pair] = demand;
    const auto& ts = tunnels.tunnels(pair.src, pair.dst);
    // Mirror the per-bucket LP's admissibility (alive + hop budget) so the
    // capacity partition never reserves headroom for unusable tunnels.
    auto admissible = [&](const topo::Tunnel& t) {
      return t.alive(g) && (options.max_sr_hops == 0 ||
                            t.links.size() <= options.max_sr_hops);
    };
    double wsum = 0.0;
    for (const auto& t : ts) {
      if (admissible(t)) wsum += 1.0 / t.weight;
    }
    if (wsum <= 0.0) continue;
    for (const auto& t : ts) {
      if (!admissible(t)) continue;
      b.nnz += t.links.size() + 1;
      const double share = demand * (1.0 / t.weight) / wsum;
      for (topo::EdgeId e : t.links) {
        b.estimated[e] += share;
        total_estimated[e] += share;
      }
    }
  }

  // Solve the buckets in parallel against their capacity shares.
  std::vector<const Bucket*> bucket_list;
  bucket_list.reserve(buckets.size());
  for (const auto& [key, b] : buckets) bucket_list.push_back(&b);
  std::vector<SiteLpResult> partial(bucket_list.size());

  std::unique_ptr<util::ThreadPool> owned;
  if (pool == nullptr) {
    owned = std::make_unique<util::ThreadPool>(threads);
    pool = owned.get();
  }
  auto solve_bucket = [&](std::size_t i) {
    const Bucket& b = *bucket_list[i];
    std::vector<double> caps(g.num_links(), 0.0);
    for (topo::EdgeId e = 0; e < g.num_links(); ++e) {
      if (total_estimated[e] > 0.0 && b.estimated[e] > 0.0) {
        caps[e] = base_capacity(e) * (b.estimated[e] / total_estimated[e]);
      }
    }
    partial[i] = solve_max_site_flow(g, tunnels, b.demands, caps, epsilon,
                                     options);
  };
  // One pool task per bucket, largest first, so the biggest sub-LP starts
  // at once instead of queueing behind a chunk of small ones. The merge
  // below walks bucket_list order, so the result does not depend on the
  // schedule.
  std::vector<std::size_t> order(bucket_list.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return bucket_list[a]->nnz > bucket_list[b]->nnz;
                   });
  std::vector<std::future<void>> done;
  done.reserve(order.size());
  for (std::size_t i : order) {
    done.push_back(pool->submit([&solve_bucket, i] { solve_bucket(i); }));
  }
  for (auto& f : done) f.wait();
  for (auto& f : done) f.get();  // rethrows a bucket's exception

  SiteLpResult merged;
  merged.status = lp::Status::kOptimal;
  for (const SiteLpResult& r : partial) {
    if (r.status != lp::Status::kOptimal) merged.status = r.status;
    merged.objective += r.objective;
    merged.dual_bound += r.dual_bound;
    merged.iterations += r.iterations;
    merged.num_variables += r.num_variables;
    merged.num_constraints += r.num_constraints;
    merged.pairs_fixed += r.pairs_fixed;
    merged.rows_dropped += r.rows_dropped;
    merged.used_simplex = merged.used_simplex || r.used_simplex;
    for (const auto& [pair, alloc] : r.alloc) merged.alloc[pair] = alloc;
  }
  return merged;
}

}  // namespace megate::te

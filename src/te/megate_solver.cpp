#include "megate/te/megate_solver.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "megate/obs/span.h"
#include "megate/te/checker.h"
#include "megate/util/stopwatch.h"

namespace megate::te {
namespace {

/// Flows of one pair and QoS class, by index into the pair's flow vector.
struct ClassView {
  std::vector<std::size_t> flow_ids;
  std::vector<double> demands;
};

ClassView class_view(const std::vector<tm::EndpointDemand>& flows,
                     tm::QosClass q, bool filter) {
  ClassView view;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (!filter || flows[i].qos == q) {
      view.flow_ids.push_back(i);
      view.demands.push_back(flows[i].demand_gbps);
    }
  }
  return view;
}

inline std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data,
                                 std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) noexcept {
  return fnv1a_bytes(h, &v, sizeof(v));
}

inline std::uint64_t fnv1a_double(std::uint64_t h, double d) noexcept {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return fnv1a_u64(h, bits);
}

/// splitmix64 finalizer: full-avalanche mix of one 64-bit word.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// Bitwise fingerprint of a double vector (size + every value). Hashes a
/// word per element, not a byte — these run over every flow demand of
/// every pair each interval, so they must stay a fraction of FastSSP.
std::uint64_t hash_doubles(const std::vector<double>& v) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL ^ mix64(v.size());
  for (double d : v) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    h = (h ^ mix64(bits)) * 0x100000001B3ULL;
  }
  return h;
}

/// Memo slot id for one (site pair, QoS round).
std::uint64_t pair_round_slot(const topo::SitePair& pair,
                              std::size_t round) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  h = fnv1a_u64(h, pair.src);
  h = fnv1a_u64(h, pair.dst);
  h = fnv1a_u64(h, round);
  return h;
}

/// Fingerprint of everything the solve depends on besides the traffic
/// matrix: link states and capacities, the tunnel sets, and epsilon (it
/// enters the LP objective). Any change — a fault-injector link failure,
/// a capacity derate, a tunnel repair — moves this value and forces the
/// incremental state to be dropped.
std::uint64_t topology_fingerprint(const topo::Graph& g,
                                   const topo::TunnelSet& tunnels,
                                   double epsilon) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  h = fnv1a_double(h, epsilon);
  h = fnv1a_u64(h, g.num_links());
  for (topo::EdgeId e = 0; e < g.num_links(); ++e) {
    const topo::Link& l = g.link(e);
    h = fnv1a_u64(h, l.up ? 1 : 0);
    h = fnv1a_double(h, l.capacity_gbps);
  }
  // TunnelSet iteration order is unspecified; combine the per-pair hashes
  // commutatively so equal tunnel sets always fingerprint equal.
  std::uint64_t pairs_h = 0;
  for (const auto& [pair, ts] : tunnels.all()) {
    std::uint64_t ph = 0xCBF29CE484222325ULL;
    ph = fnv1a_u64(ph, pair.src);
    ph = fnv1a_u64(ph, pair.dst);
    ph = fnv1a_u64(ph, ts.size());
    for (const topo::Tunnel& t : ts) {
      ph = fnv1a_u64(ph, t.links.size());
      for (topo::EdgeId e : t.links) ph = fnv1a_u64(ph, e);
      ph = fnv1a_double(ph, t.weight);
    }
    pairs_h ^= ph;
  }
  return h ^ pairs_h;
}

/// Stage-2 MaxEndpointFlow for one pair and QoS round: tunnels in
/// ascending weight (the tunnel list is already sorted by weight) —
/// Appendix A.2: FastSSP is run sequentially, shorter tunnels first, each
/// building on the remaining demand set. Returns the chosen tunnel per
/// view flow (-1 = rejected); writes nothing shared, so it can run in
/// parallel across pairs and its result can be memoized verbatim.
std::vector<std::int32_t> solve_pair_stage2(
    const ClassView& view, const std::vector<double>& f_kt,
    std::size_t num_tunnels, const ssp::FastSspOptions& options) {
  std::vector<std::int32_t> assignment(view.flow_ids.size(), -1);
  std::vector<char> assigned(view.flow_ids.size(), 0);
  for (std::size_t t = 0; t < num_tunnels && t < f_kt.size(); ++t) {
    if (f_kt[t] <= 0.0) continue;
    // Demands still unassigned in this round.
    std::vector<double> remaining;
    std::vector<std::size_t> remaining_pos;
    for (std::size_t i = 0; i < view.flow_ids.size(); ++i) {
      if (!assigned[i]) {
        remaining.push_back(view.demands[i]);
        remaining_pos.push_back(i);
      }
    }
    if (remaining.empty()) break;
    ssp::Selection picked = ssp::fast_ssp(remaining, f_kt[t], options);
    for (std::size_t sel : picked.indices) {
      const std::size_t local = remaining_pos[sel];
      assigned[local] = 1;
      assignment[local] = static_cast<std::int32_t>(t);
    }
  }
  return assignment;
}

/// Replays a per-view assignment onto the pair's allocation. Iterating in
/// ascending view order reproduces bit-for-bit the accumulation order of
/// the pre-refactor inline loop (per tunnel cell, contributions arrive in
/// ascending flow order either way).
void apply_assignment(const ClassView& view,
                      const std::vector<std::int32_t>& assignment,
                      PairAllocation& alloc) {
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const std::int32_t t = assignment[i];
    if (t < 0) continue;
    alloc.flow_tunnel[view.flow_ids[i]] = t;
    alloc.tunnel_alloc[t] += view.demands[i];
  }
}

}  // namespace

util::ThreadPool& MegaTeSolver::thread_pool() {
  if (!pool_ || pool_threads_ != options_.threads) {
    pool_ = std::make_unique<util::ThreadPool>(options_.threads);
    pool_threads_ = options_.threads;
  }
  return *pool_;
}

LearnedAllocator& MegaTeSolver::learned_allocator() {
  if (!learned_) {
    LearnedOptions opts = options_.learned;
    if (opts.max_sr_hops == 0) opts.max_sr_hops = options_.site_lp.max_sr_hops;
    learned_ = std::make_unique<LearnedAllocator>(opts);
  }
  return *learned_;
}

void MegaTeSolver::set_options(const MegaTeOptions& options) {
  if (options.threads != options_.threads) pool_.reset();
  options_ = options;
  reset_incremental();
  learned_.reset();
}

void MegaTeSolver::reset_incremental() { inc_state_ = IncrementalState{}; }

TeSolution MegaTeSolver::solve(const TeProblem& problem) {
  return solve(problem, {}).solution;
}

SolveReport MegaTeSolver::solve(const TeProblem& problem,
                                const SolveContext& ctx) {
  if (!problem.valid()) throw std::invalid_argument("invalid TE problem");
  if (ctx.learned) return solve_learned(problem, ctx);
  return ctx.incremental ? solve_incremental_impl(problem, ctx.prev)
                         : solve_impl(problem, nullptr);
}

SolveReport MegaTeSolver::solve_learned(const TeProblem& problem,
                                        const SolveContext& ctx) {
  LearnedAllocator& la = learned_allocator();
  obs::MetricsRegistry* reg = options_.metrics;

  LearnedStats stats;
  stats.attempted = true;
  stats.observations = la.observations();

  // Gate, part 1 — pre-flight guards that need no learned solve at all.
  std::string reason;
  if (stats.observations < la.options().min_observations) {
    reason = "untrained";
  } else if (la.options().drift_mape_threshold > 0.0) {
    stats.drift_mape = la.drift_mape(*problem.traffic);
    if (stats.drift_mape > la.options().drift_mape_threshold) {
      reason = "drift";
    }
  }

  // Gate, part 2 — predict -> repair, then audit the result with the same
  // machinery every exact solve is held to: the constraint checker (link
  // capacities, flow assignment consistency) and the plan/encap hop-budget
  // audit. A learned solution is never returned unaudited.
  if (reason.empty()) {
    util::Stopwatch sw;
    TeSolution sol = la.allocate(problem, &thread_pool());
    stats.learned_seconds = sw.elapsed_seconds();
    stats.predicted_satisfied_gbps = sol.satisfied_gbps;
    stats.exact_estimate_gbps =
        la.exact_satisfied_fraction() * sol.total_demand_gbps;
    const std::uint32_t budget = options_.site_lp.max_sr_hops;
    if (budget > 0 &&
        count_hop_budget_violations(problem, sol, budget) > 0) {
      reason = "hop_budget";
    } else {
      CheckOptions chk_opts;
      chk_opts.require_flow_assignment = true;
      if (!check_solution(problem, sol, chk_opts)) {
        reason = "capacity";
      } else if (sol.satisfied_gbps + 1e-9 <
                 la.options().accept_fraction * stats.exact_estimate_gbps) {
        reason = "quality";
      }
    }
    if (reason.empty()) {
      stats.accepted = true;
      if (reg != nullptr) {
        reg->counter("te.learned.accepted").inc();
        reg->gauge("te.learned.last.satisfied_gbps").set(sol.satisfied_gbps);
        reg->gauge("te.learned.last.solve_seconds")
            .set(stats.learned_seconds);
      }
      SolveReport report;
      report.solution = std::move(sol);
      report.learned = std::move(stats);
      return report;
    }
  }

  // Fallback: the exact solve (incremental when the caller asked for it),
  // folded back into training so the model keeps tracking the exact
  // allocator — this is how warm-up and recovery from drift both work.
  stats.fallback_reason = reason;
  if (reg != nullptr) {
    reg->counter("te.learned.fallbacks").inc();
    reg->counter("te.learned.fallback." + reason).inc();
  }
  SolveReport report = ctx.incremental
                           ? solve_incremental_impl(problem, ctx.prev)
                           : solve_impl(problem, nullptr);
  la.observe(problem, report.solution);
  stats.observations = la.observations();
  report.learned = std::move(stats);
  return report;
}

SolveReport MegaTeSolver::solve_incremental_impl(const TeProblem& problem,
                                                 const TeProblem* prev) {
  const std::uint64_t fp = topology_fingerprint(
      *problem.graph, *problem.tunnels, problem.epsilon);
  const bool invalidated = inc_state_.valid && inc_state_.topo_fp != fp;
  if (invalidated) {
    // Topology or capacity moved (fault event, repair, derate): every
    // cached result was computed against a different network — drop all.
    inc_state_.memo.invalidate_all();
    inc_state_ = IncrementalState{};
  }
  const bool used_incremental = inc_state_.valid;
  tm::PairFingerprintMap prev_fps = std::move(inc_state_.pair_fps);
  if (prev_fps.empty() && prev != nullptr && prev->valid()) {
    // No retained state (first call, or the caller solved the previous
    // interval elsewhere): the previous traffic matrix still seeds the
    // demand delta, provided it was paired with this very topology.
    if (topology_fingerprint(*prev->graph, *prev->tunnels, prev->epsilon) ==
        fp) {
      prev_fps = tm::fingerprint_pairs(*prev->traffic);
    }
  }

  // Fingerprint the new matrix exactly once: the same map keys the
  // stage-2 memo during solve_impl (which is why it must land in
  // inc_state_ *before* the solve), serves the delta classification and
  // becomes the comparison baseline for the next interval.
  inc_state_.pair_fps = tm::fingerprint_pairs(*problem.traffic);
  SolveReport report = solve_impl(problem, &inc_state_);

  IncrementalStats& stats = report.incremental;
  stats.used_incremental = used_incremental;
  stats.cache_invalidations = invalidated ? 1 : 0;
  if (!prev_fps.empty()) {
    const tm::DemandDelta delta =
        tm::diff_traffic(prev_fps, inc_state_.pair_fps);
    stats.dirty_pairs = delta.dirty_pairs();
    stats.clean_pairs = delta.clean_pairs;
  }
  inc_state_.topo_fp = fp;
  inc_state_.valid = true;
  return report;
}

SolveReport MegaTeSolver::solve_impl(const TeProblem& problem,
                                     IncrementalState* inc) {
  const topo::Graph& g = *problem.graph;
  const topo::TunnelSet& tunnels = *problem.tunnels;
  const tm::TrafficMatrix& traffic = *problem.traffic;

  util::Stopwatch total_clock;
  SolveReport report;
  double stage1_s = 0.0;
  double stage2_s = 0.0;

  // Observability (optional). Handles are resolved once up front; the
  // per-pair hot loops then pay one relaxed-atomic observe each.
  obs::MetricsRegistry* reg = options_.metrics;
  std::optional<obs::Span> solve_span;
  if (reg != nullptr) solve_span.emplace(*reg, "te.solve");
  obs::Histogram* pair_hist =
      reg != nullptr ? &reg->histogram("te.stage2.pair.seconds") : nullptr;
  obs::Counter* memo_hits =
      reg != nullptr ? &reg->counter("te.ssp.memo_hits") : nullptr;
  obs::Counter* memo_misses =
      reg != nullptr ? &reg->counter("te.ssp.memo_misses") : nullptr;
  if (reg != nullptr) {
    reg->counter(inc != nullptr ? "te.solves.incremental" : "te.solves.cold")
        .inc();
  }

  TeSolution& sol = report.solution;
  sol.solver_name = name();
  sol.total_demand_gbps = traffic.total_demand_gbps();

  // Pre-create allocations so stage 2 can write per-pair without locking.
  std::vector<topo::SitePair> pair_ids;
  std::vector<const std::vector<tm::EndpointDemand>*> pair_flows;
  for (const auto& [pair, flows] : traffic.pairs()) {
    auto& alloc = sol.pairs[pair];
    alloc.tunnel_alloc.assign(tunnels.tunnels(pair.src, pair.dst).size(),
                              0.0);
    alloc.flow_tunnel.assign(flows.size(), -1);
    pair_ids.push_back(pair);
    pair_flows.push_back(&flows);
  }

  // Residual link capacities across QoS rounds.
  std::vector<double> residual(g.num_links());
  for (topo::EdgeId e = 0; e < g.num_links(); ++e) {
    residual[e] = g.link(e).up ? g.link(e).capacity_gbps : 0.0;
  }

  util::ThreadPool& pool = thread_pool();
  const bool sequencing = options_.qos_sequencing;
  const std::array<tm::QosClass, 3> rounds = {
      tm::QosClass::kClass1, tm::QosClass::kClass2, tm::QosClass::kClass3};
  const std::size_t num_rounds = sequencing ? rounds.size() : 1;

  for (std::size_t round = 0; round < num_rounds; ++round) {
    const tm::QosClass qos = rounds[round];
    // Per-QoS-round histogram suffix ("q1".."q3", or "all" when QoS
    // sequencing is off and the single round covers every class).
    const std::string qos_label =
        sequencing ? "q" + std::to_string(round + 1) : "all";

    // --- SiteMerge: aggregate this round's demands to site level ---
    std::unordered_map<topo::SitePair, double, topo::SitePairHash> d_k;
    for (std::size_t p = 0; p < pair_ids.size(); ++p) {
      double sum = 0.0;
      for (const auto& f : *pair_flows[p]) {
        if (!sequencing || f.qos == qos) sum += f.demand_gbps;
      }
      if (sum > 0.0) d_k[pair_ids[p]] = sum;
    }
    if (d_k.empty()) continue;

    // --- Stage 1: MaxSiteFlow on residual capacity ---
    util::Stopwatch s1;
    std::optional<obs::Span> s1_span;
    if (reg != nullptr) s1_span.emplace(*reg, "stage1");
    SiteLpResult lp =
        options_.stage1_clusters > 1
            ? solve_max_site_flow_clustered(
                  g, tunnels, d_k, residual, problem.epsilon,
                  options_.stage1_clusters, options_.site_lp,
                  options_.threads, &pool)
            : solve_max_site_flow(g, tunnels, d_k, residual,
                                  problem.epsilon, options_.site_lp);
    s1_span.reset();
    const double s1_elapsed = s1.elapsed_seconds();
    stage1_s += s1_elapsed;
    if (reg != nullptr) {
      reg->histogram("te.stage1." + qos_label + ".seconds")
          .observe(s1_elapsed);
      reg->counter("te.stage1.presolve.pairs_fixed").inc(lp.pairs_fixed);
      reg->counter("te.stage1.presolve.rows_dropped").inc(lp.rows_dropped);
    }
    sol.iterations += lp.iterations;

    // --- Stage 2: per-pair FastSSP, parallel across site pairs ---
    util::Stopwatch s2;
    std::optional<obs::Span> s2_span;
    if (reg != nullptr) s2_span.emplace(*reg, "stage2");
    // Per-pair wall time; plain chrono + one histogram observe rather
    // than a span per pair (spans would record thousands of rows).
    const auto observe_pair = [pair_hist](
                                  std::chrono::steady_clock::time_point t0) {
      if (pair_hist == nullptr) return;
      pair_hist->observe(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
    };
    // Memo probe, on incremental solves only. The key reuses the delta
    // pass's per-pair flow-list fingerprint (inc->pair_fps holds the
    // *current* interval's map) plus the bitwise hash of this round's
    // F_{k,t}, so the serial probe is O(1) per pair. Probes and inserts
    // are serial (lock-free memo, deterministic insertion order); entry
    // pointers stay valid until the insert loop, after every apply.
    struct MemoProbe {
      bool probed = false;
      ssp::PairSolveKey key;
      const ssp::PairSolveEntry* hit = nullptr;
      std::vector<std::int32_t> assignment;  // a miss's result, to insert
    };
    std::vector<MemoProbe> probes(inc != nullptr ? pair_ids.size() : 0);
    for (std::size_t p = 0; p < probes.size(); ++p) {
      auto lp_it = lp.alloc.find(pair_ids[p]);
      if (lp_it == lp.alloc.end()) continue;
      MemoProbe& m = probes[p];
      m.probed = true;
      m.key.demand_hash = inc->pair_fps.at(pair_ids[p]).hash;
      m.key.alloc_hash = hash_doubles(lp_it->second);
      m.hit = inc->memo.lookup(pair_round_slot(pair_ids[p], round), m.key);
      if (m.hit != nullptr) {
        ++report.incremental.ssp_cache_hits;
        if (memo_hits != nullptr) memo_hits->inc();
      } else {
        ++report.incremental.ssp_cache_misses;
        if (memo_misses != nullptr) memo_misses->inc();
      }
    }
    pool.parallel_for(pair_ids.size(), [&](std::size_t p) {
      const auto t0 = std::chrono::steady_clock::now();
      const topo::SitePair pair = pair_ids[p];
      auto lp_it = lp.alloc.find(pair);
      if (lp_it == lp.alloc.end()) return;
      // All pairs were pre-created above; find() avoids a concurrent
      // operator[] insert on the shared map.
      PairAllocation& alloc = sol.pairs.find(pair)->second;
      const ssp::PairSolveEntry* hit =
          probes.empty() ? nullptr : probes[p].hit;
      if (hit != nullptr) {
        // The cached assignment is indexed by view position; the class
        // filter enumerates exactly class_view's positions, in the same
        // ascending order as apply_assignment, so tunnel_alloc accumulates
        // bitwise as on a recompute — without materializing a ClassView.
        const auto& flows = *pair_flows[p];
        std::size_t vi = 0;
        for (std::size_t i = 0; i < flows.size(); ++i) {
          if (sequencing && flows[i].qos != qos) continue;
          const std::int32_t t = hit->assignment[vi++];
          if (t >= 0) {
            alloc.flow_tunnel[i] = t;
            alloc.tunnel_alloc[t] += flows[i].demand_gbps;
          }
        }
      } else {
        const ClassView view = class_view(*pair_flows[p], qos, sequencing);
        std::vector<std::int32_t> assignment = solve_pair_stage2(
            view, lp_it->second, tunnels.tunnels(pair.src, pair.dst).size(),
            options_.fast_ssp);
        apply_assignment(view, assignment, alloc);
        if (!probes.empty()) probes[p].assignment = std::move(assignment);
      }
      observe_pair(t0);
    });
    for (std::size_t p = 0; p < probes.size(); ++p) {
      MemoProbe& m = probes[p];
      if (!m.probed || m.hit != nullptr) continue;
      inc->memo.insert(pair_round_slot(pair_ids[p], round), m.key,
                       ssp::PairSolveEntry{std::move(m.assignment)});
    }
    s2_span.reset();
    const double s2_elapsed = s2.elapsed_seconds();
    stage2_s += s2_elapsed;
    if (reg != nullptr) {
      reg->histogram("te.stage2." + qos_label + ".seconds")
          .observe(s2_elapsed);
    }

    // --- Update residual capacities with the *assigned* traffic ---
    for (std::size_t p = 0; p < pair_ids.size(); ++p) {
      const topo::SitePair pair = pair_ids[p];
      const auto& ts = tunnels.tunnels(pair.src, pair.dst);
      const PairAllocation& alloc = sol.pairs[pair];
      const auto& flows = *pair_flows[p];
      for (std::size_t i = 0; i < flows.size(); ++i) {
        if (sequencing && flows[i].qos != qos) continue;
        const std::int32_t t = alloc.flow_tunnel[i];
        if (t < 0) continue;
        for (topo::EdgeId e : ts[t].links) {
          residual[e] = std::max(0.0, residual[e] - flows[i].demand_gbps);
        }
      }
    }

    // --- Residual repair (see MegaTeOptions::residual_repair) ---
    if (options_.residual_repair) {
      struct Unassigned {
        std::size_t pair_index;
        std::size_t flow_index;
        double demand;
      };
      std::vector<Unassigned> left;
      for (std::size_t p = 0; p < pair_ids.size(); ++p) {
        const PairAllocation& alloc = sol.pairs[pair_ids[p]];
        const auto& flows = *pair_flows[p];
        for (std::size_t i = 0; i < flows.size(); ++i) {
          if (sequencing && flows[i].qos != qos) continue;
          if (alloc.flow_tunnel[i] < 0 && flows[i].demand_gbps > 0.0) {
            left.push_back({p, i, flows[i].demand_gbps});
          }
        }
      }
      std::sort(left.begin(), left.end(),
                [](const Unassigned& a, const Unassigned& b) {
                  return a.demand > b.demand;
                });
      const std::uint32_t repair_budget = options_.site_lp.max_sr_hops;
      for (const Unassigned& u : left) {
        const topo::SitePair pair = pair_ids[u.pair_index];
        const auto& ts = tunnels.tunnels(pair.src, pair.dst);
        PairAllocation& alloc = sol.pairs.find(pair)->second;
        for (std::size_t t = 0; t < ts.size(); ++t) {
          if (!ts[t].alive(g)) continue;
          // Repair walks *all* tunnels of the pair, including ones stage 1
          // never saw — re-apply the hop budget or repair would reopen the
          // plan/encap hole the stage-1 filter just closed.
          if (repair_budget > 0 && ts[t].links.size() > repair_budget) {
            continue;
          }
          bool fits = true;
          for (topo::EdgeId e : ts[t].links) {
            if (residual[e] < u.demand) {
              fits = false;
              break;
            }
          }
          if (!fits) continue;
          alloc.flow_tunnel[u.flow_index] = static_cast<std::int32_t>(t);
          alloc.tunnel_alloc[t] += u.demand;
          for (topo::EdgeId e : ts[t].links) residual[e] -= u.demand;
          break;
        }
      }
    }
  }

  // Satisfied demand = sum of assigned flows.
  double satisfied = 0.0;
  for (std::size_t p = 0; p < pair_ids.size(); ++p) {
    const PairAllocation& alloc = sol.pairs[pair_ids[p]];
    const auto& flows = *pair_flows[p];
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (alloc.flow_tunnel[i] >= 0) satisfied += flows[i].demand_gbps;
    }
  }
  sol.satisfied_gbps = satisfied;
  sol.solve_time_s = total_clock.elapsed_seconds();

  // Plan/encap contract audit. Stage 1 and residual repair both filter by
  // the budget, so a non-zero count here is an internal bug — fail loudly
  // (solved=false + counter + SolveReport::error) instead of letting the
  // dataplane discover it one refused encapsulation at a time.
  const std::uint32_t hop_budget = options_.site_lp.max_sr_hops;
  if (hop_budget > 0) {
    const std::size_t violations =
        count_hop_budget_violations(problem, sol, hop_budget);
    if (violations > 0) {
      sol.solved = false;
      report.hop_budget_violations = violations;
      report.error = "plan/encap contract violated: " +
                     std::to_string(violations) +
                     " allocation(s) exceed max_sr_hops=" +
                     std::to_string(hop_budget);
      if (reg != nullptr) {
        reg->counter("te.hop_budget_violations").inc(violations);
      }
    }
  }

  if (reg != nullptr) {
    reg->gauge("te.last.stage1_seconds").set(stage1_s);
    reg->gauge("te.last.stage2_seconds").set(stage2_s);
    reg->gauge("te.last.solve_seconds").set(sol.solve_time_s);
    reg->gauge("te.last.satisfied_gbps").set(satisfied);
    reg->gauge("te.last.total_demand_gbps").set(sol.total_demand_gbps);
  }
  // Working set: LP columns + one int per flow.
  sol.est_memory_bytes =
      traffic.num_flows() * (sizeof(std::int32_t) + sizeof(double)) +
      tunnels.total_tunnels() * 64;
  report.stage1_seconds = stage1_s;
  report.stage2_seconds = stage2_s;
  return report;
}

}  // namespace megate::te

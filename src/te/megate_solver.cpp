#include "megate/te/megate_solver.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "megate/obs/span.h"
#include "megate/te/checker.h"
#include "megate/tm/delta.h"
#include "megate/util/rng.h"
#include "megate/util/stopwatch.h"

namespace megate::te {
namespace {

using util::mix64;

/// Bitwise fingerprint of a double vector (size + every value). Hashes a
/// word per element, not a byte — these run over every flow demand of
/// every pair each interval, so they must stay a fraction of FastSSP.
std::uint64_t hash_doubles(const std::vector<double>& v) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL ^ mix64(v.size());
  for (double d : v) {
    h = (h ^ mix64(std::bit_cast<std::uint64_t>(d))) * 0x100000001B3ULL;
  }
  return h;
}

/// Round index of a flow's QoS class under sequencing (class 1 first), or
/// kNoRound for a value outside the three classes, which no round takes.
constexpr std::size_t kNoRound = ~std::size_t{0};
std::size_t round_of(tm::QosClass q) noexcept {
  const auto v = static_cast<std::size_t>(q);
  return v >= 1 && v <= 3 ? v - 1 : kNoRound;
}

/// Reused buffers of solve_pair_stage2, one set per worker thread.
struct Stage2Workspace {
  std::vector<std::size_t> flow_ids;  ///< the round's view: flow index
  std::vector<double> demands;        ///< and demand, per view position
  std::vector<std::int32_t> assignment;  ///< output buffer of cold solves
  std::vector<double> remaining;
  std::vector<std::size_t> remaining_pos;
};

/// Stage-2 MaxEndpointFlow for one pair and QoS round: tunnels in
/// ascending weight (the tunnel list is already sorted by weight) —
/// Appendix A.2: FastSSP is run sequentially, shorter tunnels first, each
/// building on the remaining demand set. The round's view is the pair's
/// flows of class `qos` (every flow when `filter` is off), in flow order.
/// `assignment` receives the chosen tunnel (or -1) per view flow, which is
/// what the memo stores. The chosen tunnels are then applied in ascending
/// view order, so each tunnel_alloc cell accumulates its flows in flow
/// order. Touches only its outputs and `ws`, so it runs in parallel
/// across pairs.
void solve_pair_stage2(const std::vector<tm::EndpointDemand>& flows,
                       tm::QosClass qos, bool filter,
                       const std::vector<double>& f_kt,
                       std::size_t num_tunnels,
                       const ssp::FastSspOptions& options,
                       Stage2Workspace& ws,
                       std::vector<std::int32_t>& assignment,
                       PairAllocation& alloc) {
  ws.flow_ids.clear();
  ws.demands.clear();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (!filter || flows[i].qos == qos) {
      ws.flow_ids.push_back(i);
      ws.demands.push_back(flows[i].demand_gbps);
    }
  }
  assignment.assign(ws.flow_ids.size(), -1);
  for (std::size_t t = 0; t < num_tunnels && t < f_kt.size(); ++t) {
    if (f_kt[t] <= 0.0) continue;
    // Demands still unassigned in this round.
    ws.remaining.clear();
    ws.remaining_pos.clear();
    for (std::size_t i = 0; i < ws.flow_ids.size(); ++i) {
      if (assignment[i] < 0) {
        ws.remaining.push_back(ws.demands[i]);
        ws.remaining_pos.push_back(i);
      }
    }
    if (ws.remaining.empty()) break;
    const ssp::Selection picked = ssp::fast_ssp(ws.remaining, f_kt[t], options);
    for (std::size_t sel : picked.indices) {
      assignment[ws.remaining_pos[sel]] = static_cast<std::int32_t>(t);
    }
  }
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const std::int32_t t = assignment[i];
    if (t < 0) continue;
    alloc.flow_tunnel[ws.flow_ids[i]] = t;
    alloc.tunnel_alloc[t] += ws.demands[i];
  }
}

}  // namespace

LearnedAllocator& MegaTeSolver::learned_allocator() {
  if (!learned_) learned_ = std::make_unique<LearnedAllocator>();
  return *learned_;
}

TeSolution MegaTeSolver::solve(const TeProblem& problem) {
  return solve(problem, {}).solution;
}

SolveReport MegaTeSolver::solve(const TeProblem& problem,
                                const SolveContext& ctx) {
  if (!problem.valid()) throw std::invalid_argument("invalid TE problem");
  if (ctx.learned) return solve_learned(problem, ctx);
  return ctx.incremental ? solve_incremental_impl(problem)
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
  if (stats.observations < LearnedAllocator::kMinObservations) {
    reason = "untrained";
  } else {
    stats.drift_mape = la.drift_mape(*problem.traffic);
    if (stats.drift_mape > LearnedAllocator::kDriftMapeThreshold) {
      reason = "drift";
    }
  }

  // Gate, part 2 — predict -> repair, then audit the result with the same
  // constraint checker every exact solve is held to (link capacities, flow
  // assignment consistency). A learned solution is never returned
  // unaudited. The hop budget needs no audit: every tunnel of the set
  // fits it (topo::TunnelSet::set_tunnels).
  if (reason.empty()) {
    util::Stopwatch sw;
    TeSolution sol = la.allocate(problem);
    stats.learned_seconds = sw.elapsed_seconds();
    stats.predicted_satisfied_gbps = sol.satisfied_gbps;
    stats.exact_estimate_gbps =
        la.exact_satisfied_fraction() * sol.total_demand_gbps;
    CheckOptions chk_opts;
    chk_opts.require_flow_assignment = true;
    if (!check_solution(problem, sol, chk_opts)) {
      reason = "capacity";
    } else if (sol.satisfied_gbps + 1e-9 <
               LearnedAllocator::kAcceptFraction *
                   stats.exact_estimate_gbps) {
      reason = "quality";
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
  SolveReport report = ctx.incremental ? solve_incremental_impl(problem)
                                       : solve_impl(problem, nullptr);
  la.observe(problem, report.solution);
  stats.observations = la.observations();
  report.learned = std::move(stats);
  return report;
}

std::uint64_t topology_fingerprint(const TeProblem& problem) {
  const topo::Graph& g = *problem.graph;
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto step = [&h](std::uint64_t word) {
    h = (h ^ mix64(word)) * 0x100000001B3ULL;
  };
  step(std::bit_cast<std::uint64_t>(problem.epsilon));
  step(g.num_links());
  for (topo::EdgeId e = 0; e < g.num_links(); ++e) {
    const topo::Link& l = g.link(e);
    step(l.up ? 1 : 0);
    step(std::bit_cast<std::uint64_t>(l.capacity_gbps));
  }
  step(problem.tunnels->fingerprint());
  return h;
}

void MegaTeSolver::IncrementalState::key(const tm::TrafficMatrix& traffic) {
  ids.clear();
  demand_hash.clear();
  ids.reserve(traffic.pairs().size());
  demand_hash.reserve(traffic.pairs().size());
  for (const auto& [pair, flows] : traffic.pairs()) {
    const auto next_id = static_cast<std::uint32_t>(pair_id.size());
    ids.push_back(pair_id.try_emplace(pair, next_id).first->second);
    demand_hash.push_back(tm::fingerprint_flows(flows).hash);
  }
  memo.resize(pair_id.size() * kMemoRounds);
}

SolveReport MegaTeSolver::solve_incremental_impl(const TeProblem& problem) {
  IncrementalState& st = inc_state_;
  const std::uint64_t fp = topology_fingerprint(problem);
  const bool invalidated = st.valid && st.topo_fp != fp;
  // Topology or capacity moved (fault event, repair, derate): every cached
  // result was computed against a different network — drop the memo (one
  // epoch bump).
  if (invalidated) st.memo.invalidate_all();

  // Key the memo before the solve: solve_impl probes it per round.
  st.key(*problem.traffic);
  SolveReport report = solve_impl(problem, &st);

  IncrementalStats& stats = report.incremental;
  stats.used_incremental = st.valid && !invalidated;
  stats.cache_invalidations = invalidated ? 1 : 0;
  st.topo_fp = fp;
  st.valid = true;
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

  const bool sequencing = options_.qos_sequencing;
  const std::array<tm::QosClass, 3> rounds = {
      tm::QosClass::kClass1, tm::QosClass::kClass2, tm::QosClass::kClass3};
  const std::size_t num_rounds = sequencing ? rounds.size() : 1;

  // Round state per pair, indexed by the pair's position in
  // traffic.pairs(): its flows, tunnels and allocation are resolved here
  // once instead of re-hashed in every loop below. Allocations are
  // pre-created so stage 2 writes per pair without locking (map values
  // never move). The same pass computes every round's SiteMerge sum; each
  // accumulates its flows in flow order, as a pass per round would.
  struct PairState {
    topo::SitePair id;
    const std::vector<tm::EndpointDemand>* flows;
    const std::vector<topo::Tunnel>* tunnels;
    PairAllocation* alloc;
  };
  const std::size_t num_pairs = traffic.pairs().size();
  std::vector<PairState> pairs;
  pairs.reserve(num_pairs);
  std::vector<double> merged(num_pairs * num_rounds, 0.0);
  sol.pairs.reserve(num_pairs);
  for (const auto& [pair, flows] : traffic.pairs()) {
    const auto& ts = tunnels.tunnels(pair.src, pair.dst);
    PairAllocation& alloc = sol.pairs[pair];
    alloc.tunnel_alloc.assign(ts.size(), 0.0);
    alloc.flow_tunnel.assign(flows.size(), -1);
    double* sums = &merged[pairs.size() * num_rounds];
    for (const auto& f : flows) {
      const std::size_t r = sequencing ? round_of(f.qos) : 0;
      if (r != kNoRound) sums[r] += f.demand_gbps;
    }
    pairs.push_back({pair, &flows, &ts, &alloc});
  }

  // Residual link capacities across QoS rounds.
  std::vector<double> residual(g.num_links());
  for (topo::EdgeId e = 0; e < g.num_links(); ++e) {
    residual[e] = g.link(e).up ? g.link(e).capacity_gbps : 0.0;
  }

  // Stage-2 memo, on incremental solves only. A solve that starts with an
  // empty memo cannot hit: round r's slots are filled only after round
  // r's probes. It skips the lookups and counts them as misses.
  const bool probe_memo = inc != nullptr && !inc->memo.empty();
  std::vector<ssp::PairSolveKey> keys(inc != nullptr ? num_pairs : 0);
  std::vector<const std::vector<std::int32_t>*> hits(keys.size(), nullptr);
  std::vector<const std::vector<double>*> f_kt(num_pairs, nullptr);
  std::vector<std::size_t> allocated;  // pairs with an F_{k,t} this round

  for (std::size_t round = 0; round < num_rounds; ++round) {
    const tm::QosClass qos = rounds[round];
    // Per-QoS-round histogram suffix ("q1".."q3", or "all" when QoS
    // sequencing is off and the single round covers every class).
    const std::string qos_label =
        sequencing ? "q" + std::to_string(round + 1) : "all";

    // --- SiteMerge: this round's site-level demands D_k ---
    // d_k's iteration order is the LP's column order, so it is built by
    // the same inserts in the same order as ever (a reserve() would
    // reorder it and change the plan).
    std::unordered_map<topo::SitePair, double, topo::SitePairHash> d_k;
    for (std::size_t p = 0; p < num_pairs; ++p) {
      const double sum = merged[p * num_rounds + round];
      if (sum > 0.0) d_k[pairs[p].id] = sum;
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
                  options_.stage1_clusters, options_.site_lp, pool_)
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
    report.stage1_objective += lp.objective;
    report.stage1_dual_bound += lp.dual_bound;

    // --- Stage 2: per-pair FastSSP, parallel across site pairs ---
    util::Stopwatch s2;
    std::optional<obs::Span> s2_span;
    if (reg != nullptr) s2_span.emplace(*reg, "stage2");
    // Only pairs stage 1 allocated take part in stage 2, so only they can
    // hold assignments of this round before the repair.
    allocated.clear();
    for (std::size_t p = 0; p < num_pairs; ++p) {
      auto it = lp.alloc.find(pairs[p].id);
      f_kt[p] = it == lp.alloc.end() ? nullptr : &it->second;
      if (f_kt[p] != nullptr) allocated.push_back(p);
    }
    // Memo probe: the key is the pair's flow-list hash (computed for this
    // interval before the solve) plus the bitwise hash of this round's
    // F_{k,t}, so the serial probe is O(1) per pair. Hit pointers
    // stay valid through the round: a miss refills only its own slot.
    const auto slot = [&](std::size_t p) {
      return inc->ids[p] * kMemoRounds + round;
    };
    if (inc != nullptr) {
      std::size_t round_hits = 0;
      for (std::size_t p : allocated) {
        keys[p].demand_hash = inc->demand_hash[p];
        keys[p].alloc_hash = hash_doubles(*f_kt[p]);
        hits[p] = probe_memo ? inc->memo.lookup(slot(p), keys[p]) : nullptr;
        if (hits[p] != nullptr) ++round_hits;
      }
      const std::size_t round_misses = allocated.size() - round_hits;
      report.incremental.ssp_cache_hits += round_hits;
      report.incremental.ssp_cache_misses += round_misses;
      if (memo_hits != nullptr) memo_hits->inc(round_hits);
      if (memo_misses != nullptr) memo_misses->inc(round_misses);
    }
    pool_.parallel_for(allocated.size(), [&](std::size_t k) {
      const std::size_t p = allocated[k];
      // Per-pair wall time: plain chrono + one histogram observe rather
      // than a span per pair (spans would record thousands of rows), and
      // no clock read at all without a histogram.
      std::chrono::steady_clock::time_point t0;
      if (pair_hist != nullptr) t0 = std::chrono::steady_clock::now();
      const PairState& ps = pairs[p];
      const std::vector<std::int32_t>* hit =
          inc != nullptr ? hits[p] : nullptr;
      if (hit != nullptr) {
        // The cached assignment is indexed by view position; the class
        // filter enumerates exactly the view's positions in the same
        // ascending order as a recompute's apply, so tunnel_alloc
        // accumulates bitwise as on a recompute.
        const auto& flows = *ps.flows;
        std::size_t vi = 0;
        for (std::size_t i = 0; i < flows.size(); ++i) {
          if (sequencing && flows[i].qos != qos) continue;
          const std::int32_t t = (*hit)[vi++];
          if (t >= 0) {
            ps.alloc->flow_tunnel[i] = t;
            ps.alloc->tunnel_alloc[t] += flows[i].demand_gbps;
          }
        }
      } else {
        // A miss writes its assignment straight into its memo slot.
        thread_local Stage2Workspace ws;
        std::vector<std::int32_t>& assignment =
            inc != nullptr ? inc->memo.refill(slot(p)) : ws.assignment;
        solve_pair_stage2(*ps.flows, qos, sequencing, *f_kt[p],
                          ps.tunnels->size(), options_.fast_ssp, ws,
                          assignment, *ps.alloc);
      }
      if (pair_hist != nullptr) {
        pair_hist->observe(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
      }
    });
    // Each miss filled its slot above; make the slots live.
    if (inc != nullptr) {
      for (std::size_t p : allocated) {
        if (hits[p] == nullptr) {
          inc->memo.commit(slot(p), keys[p]);
        }
      }
    }
    s2_span.reset();
    const double s2_elapsed = s2.elapsed_seconds();
    stage2_s += s2_elapsed;
    if (reg != nullptr) {
      reg->histogram("te.stage2." + qos_label + ".seconds")
          .observe(s2_elapsed);
    }

    // --- Update residual capacities with the *assigned* traffic ---
    for (std::size_t p : allocated) {
      const PairState& ps = pairs[p];
      const auto& ts = *ps.tunnels;
      const auto& flows = *ps.flows;
      for (std::size_t i = 0; i < flows.size(); ++i) {
        if (sequencing && flows[i].qos != qos) continue;
        const std::int32_t t = ps.alloc->flow_tunnel[i];
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
      for (std::size_t p = 0; p < num_pairs; ++p) {
        const PairAllocation& alloc = *pairs[p].alloc;
        const auto& flows = *pairs[p].flows;
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
      for (const Unassigned& u : left) {
        const auto& ts = *pairs[u.pair_index].tunnels;
        PairAllocation& alloc = *pairs[u.pair_index].alloc;
        for (std::size_t t = 0; t < ts.size(); ++t) {
          bool fits = true;
          for (topo::EdgeId e : ts[t].links) {
            if (residual[e] < u.demand) {
              fits = false;
              break;
            }
          }
          // The capacity test usually fails first; the liveness walk runs
          // only for a tunnel that fits.
          if (!fits || !ts[t].alive(g)) continue;
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
  for (const PairState& ps : pairs) {
    const auto& flows = *ps.flows;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (ps.alloc->flow_tunnel[i] >= 0) satisfied += flows[i].demand_gbps;
    }
  }
  sol.satisfied_gbps = satisfied;
  sol.solve_time_s = total_clock.elapsed_seconds();

  if (reg != nullptr) {
    reg->gauge("te.last.stage1_seconds").set(stage1_s);
    reg->gauge("te.last.stage2_seconds").set(stage2_s);
    reg->gauge("te.last.solve_seconds").set(sol.solve_time_s);
    // Time ledger: the solve's own glue outside the two stages.
    reg->gauge("te.solve.unattributed_seconds")
        .set(std::max(0.0, sol.solve_time_s - stage1_s - stage2_s));
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

#pragma once
// The MegaTE two-stage optimization (paper Algorithm 1 + §4.1's QoS
// sequencing):
//
//   for each QoS class q = 1..3 (highest priority first):
//     D_k   = SiteMerge({d_k^i : qos = q})
//     F_k,t = MaxSiteFlow(D_k, residual capacities)        [stage 1: LP]
//     for each site pair k (in parallel):
//       walk tunnels in ascending weight w_t and run
//       FastSSP(F_k,t, unassigned demands)                 [stage 2: SSP]
//     residual capacities -= assigned traffic
//
// Endpoint flows are indivisible: every flow ends on exactly one tunnel or
// is rejected, satisfying constraints (1b)/(1c) by construction.
//
// Incremental solving (SolveContext::incremental) is one mechanism: a
// per-(pair, round) stage-2 memo (ssp::PairMemoCache) keyed by the pair's
// flow-list fingerprint (tm::fingerprint_flows) and the bitwise hash of
// its F_{k,t}. Successive TE intervals move only a fraction of the
// demand, so most pairs replay their cached assignment. It runs the same
// round loop as a cold solve — stage 1 always solves from scratch — so
// its plan is bitwise identical to the cold one. Any topology or capacity
// change (link up/down, derate, tunnel repair — i.e. every fault-injector
// event) flips the topology fingerprint and drops the memo. See DESIGN.md
// "Incremental solving across intervals".
//
// Cost outside the two stages is O(links + flows) on flat per-pair arrays:
// the topology fingerprint reads TunnelSet::fingerprint() instead of
// rehashing every tunnel, each pair's allocation, tunnels and F_{k,t} are
// resolved once per solve or round instead of per loop, dropping the memo
// is an epoch bump, and a solve that starts with an empty memo (the first
// one, or any after a fault) skips the lookups it knows must miss.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "megate/obs/metrics.h"
#include "megate/ssp/fast_ssp.h"
#include "megate/ssp/memo.h"
#include "megate/te/learned.h"
#include "megate/te/site_lp.h"
#include "megate/te/types.h"
#include "megate/util/thread_pool.h"

namespace megate::te {

struct MegaTeOptions {
  SiteLpOptions site_lp;
  ssp::FastSspOptions fast_ssp;
  /// Worker threads of the solver's pool (0 = hardware), built once at
  /// construction. The pool runs the per-pair stage-2 solves and, with
  /// stage1_clusters > 1, the clustered stage-1 buckets.
  std::size_t threads = 0;
  /// > 1: solve stage 1 with the cluster-contracted MaxSiteFlow (§8
  /// "Accelerating MaxSiteFlow solving") using this many site clusters;
  /// 0/1: the plain joint LP. Ablation: bench/ablation_stage1.
  std::size_t stage1_clusters = 0;
  /// Assign QoS classes sequentially on residual capacity (paper §4.1).
  /// Disabled, all classes are solved in one joint pass — used by the
  /// ablation bench to show why sequencing matters for class-1 latency.
  bool qos_sequencing = true;
  /// Residual repair: after FastSSP, walk the round's still-unassigned
  /// flows (largest first) and place each on its best tunnel whose links
  /// all retain enough residual capacity. The paper's instances have
  /// thousands of flows per site pair, where the fractional F_{k,t} split
  /// is always packable; at low flows-per-pair an indivisible flow can
  /// straddle the split and be dropped — this pass recovers it without
  /// ever violating a link capacity. See DESIGN.md §5.
  bool residual_repair = true;
  /// Observability registry; null = no spans/metrics (zero overhead on
  /// the solve path). When set, each solve emits the "te.solve" span with
  /// nested "stage1"/"stage2" children, per-QoS-round stage timing
  /// histograms (te.stage1.q<N>.seconds, ...), a per-pair stage-2
  /// duration histogram, stage-2 memo hit/miss counters, and the stage-1
  /// presolve counters te.stage1.presolve.{pairs_fixed,rows_dropped}.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Telemetry of one incremental solve (SolveReport::incremental).
struct IncrementalStats {
  /// False when the call ran as a cold solve (first interval, or a
  /// topology change that dropped the memo).
  bool used_incremental = false;
  std::size_t ssp_cache_hits = 0;    ///< stage-2 solves replayed from memo
  std::size_t ssp_cache_misses = 0;  ///< stage-2 solves recomputed
  std::size_t cache_invalidations = 0;  ///< full drops (topology change)
};

/// How one solve call should run. Passed by value next to the problem so
/// the mode travels with the call, not with solver state.
struct SolveContext {
  /// Reuse stage-2 results retained from earlier solves of this solver
  /// (the per-pair memo) where the inputs are bitwise unchanged. The plan
  /// is bitwise identical to a cold solve's (enforced by
  /// tests/incremental_test.cpp); the memo is dropped whenever the
  /// topology fingerprint moved, and a key mismatch recomputes.
  bool incremental = false;
  /// Try the learned fast path first (predict -> repair -> audit). The
  /// solver's quality gate decides per call: an accepted learned solution
  /// is returned directly; otherwise the call falls back to the exact
  /// solve (incremental when `incremental` is also set) and that outcome
  /// is folded back into the allocator's training. Never returns an
  /// unaudited learned solution. SolveReport::learned says what happened.
  bool learned = false;
};

/// Solution plus the stats and timings of the call that produced it —
/// one value instead of getter state mutated behind the caller's back.
struct SolveReport {
  TeSolution solution;
  /// Wall-clock split of this solve, for the Fig. 9 discussion.
  double stage1_seconds = 0.0;
  double stage2_seconds = 0.0;
  /// Stage-1 quality ledger, summed over QoS rounds (SiteLpResult): the
  /// MaxSiteFlow objective reached and the upper bound certified on it.
  double stage1_objective = 0.0;
  double stage1_dual_bound = 0.0;
  /// Telemetry of the incremental machinery (default-initialized when
  /// the call ran cold).
  IncrementalStats incremental;
  /// Learned-path telemetry (default-initialized unless the call ran with
  /// SolveContext::learned).
  LearnedStats learned;
  /// Human-readable failure description; empty on success. No solve path
  /// sets it today (a bad problem throws); callers such as loopbench
  /// still report it.
  std::string error;

  bool ok() const noexcept { return error.empty(); }
};

/// Fingerprint of everything a solve depends on besides the traffic
/// matrix: link states and capacities, the tunnel sets
/// (TunnelSet::fingerprint()) and epsilon. The incremental solver drops its
/// memo whenever this value moves.
std::uint64_t topology_fingerprint(const TeProblem& problem);

class MegaTeSolver final : public Solver {
 public:
  /// Options are fixed for the solver's lifetime; the worker pool is
  /// built here from options.threads and reused by every solve.
  explicit MegaTeSolver(MegaTeOptions options = {})
      : options_(options), pool_(options.threads) {}

  std::string name() const override { return "MegaTE"; }

  /// te::Solver interface (the Fig. 9/10 benches, property tests and
  /// failure simulation hold solvers as Solver*): `solve(problem, {})`
  /// returning the solution only.
  TeSolution solve(const TeProblem& problem) override;

  /// The one solve entry point: runs cold or incremental per `ctx` and
  /// returns the solution together with its stats/timings. No default
  /// argument on `ctx` — it would make one-argument calls ambiguous
  /// with the Solver::solve override above; pass `{}` for a cold solve.
  SolveReport solve(const TeProblem& problem, const SolveContext& ctx);

  const MegaTeOptions& options() const noexcept { return options_; }

 private:
  /// The learned allocator backing SolveContext::learned, created lazily
  /// and retained across solves (its training state is the point).
  LearnedAllocator& learned_allocator();
  SolveReport solve_learned(const TeProblem& problem,
                            const SolveContext& ctx);
  /// QoS rounds a pair can take part in (memo slots per pair id).
  static constexpr std::size_t kMemoRounds = 3;
  /// The stage-2 memo and what keys it, on flat arrays indexed by a
  /// dense pair id.
  struct IncrementalState {
    bool valid = false;
    std::uint64_t topo_fp = 0;  ///< topology_fingerprint of the last solve
    /// Dense id of every site pair seen so far; the pair's memo slots are
    /// id * kMemoRounds + round. Ids carry no content, so they survive
    /// invalidation.
    std::unordered_map<topo::SitePair, std::uint32_t, topo::SitePairHash>
        pair_id;
    /// Per pair of the matrix being solved, in traffic.pairs() iteration
    /// order (solve_impl walks the same order): its dense id and its
    /// flow-list hash, the demand half of its memo keys.
    std::vector<std::uint32_t> ids;
    std::vector<std::uint64_t> demand_hash;
    ssp::PairMemoCache memo;

    /// Fills `ids` and `demand_hash` for `traffic`, assigning ids to new
    /// pairs and growing the memo to match.
    void key(const tm::TrafficMatrix& traffic);
  };

  /// The round loop (SiteMerge -> stage 1 -> stage 2 -> residual repair
  /// per QoS class). `inc` is the memo state of an incremental solve,
  /// which it probes and fills; null on cold solves.
  SolveReport solve_impl(const TeProblem& problem, IncrementalState* inc);
  /// Keys (or first drops) inc_state_ around solve_impl and fills
  /// SolveReport::incremental.
  SolveReport solve_incremental_impl(const TeProblem& problem);

  MegaTeOptions options_;
  util::ThreadPool pool_;
  std::unique_ptr<LearnedAllocator> learned_;
  IncrementalState inc_state_;
};

}  // namespace megate::te

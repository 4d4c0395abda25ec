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
// Incremental solving (SolveContext::incremental): successive TE intervals
// move only a fraction of the demand, so the solver retains pair demand
// fingerprints (tm::diff_traffic) and a per-(pair, round) stage-2 memo
// (ssp::PairMemoCache) keyed by bitwise demand + F_{k,t} hashes. It runs
// the same round loop as a cold solve — stage 1 always solves from
// scratch — so its plan is bitwise identical to the cold one. Any
// topology or capacity change (link up/down, derate, tunnel repair — i.e.
// every fault-injector event) flips the topology fingerprint and drops all
// retained state. See DESIGN.md "Incremental solving across intervals".

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "megate/obs/metrics.h"
#include "megate/ssp/fast_ssp.h"
#include "megate/ssp/memo.h"
#include "megate/te/learned.h"
#include "megate/te/site_lp.h"
#include "megate/te/types.h"
#include "megate/tm/delta.h"
#include "megate/util/thread_pool.h"

namespace megate::te {

struct MegaTeOptions {
  SiteLpOptions site_lp;
  ssp::FastSspOptions fast_ssp;
  /// Worker threads for the per-pair stage-2 solves (0 = hardware).
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
  /// Learned fast path (SolveContext::learned): predictor, repair and
  /// quality-gate knobs. `learned.max_sr_hops` is overridden with
  /// `site_lp.max_sr_hops` when left 0 so both paths plan under the same
  /// encap contract. See te/learned.h and DESIGN.md §15.
  LearnedOptions learned;
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
  /// False when the call ran as a cold solve (first interval, explicit
  /// reset, or a topology change that dropped the retained state).
  bool used_incremental = false;
  std::size_t dirty_pairs = 0;  ///< pairs whose demand fingerprint moved
  std::size_t clean_pairs = 0;
  std::size_t ssp_cache_hits = 0;    ///< stage-2 solves replayed from memo
  std::size_t ssp_cache_misses = 0;  ///< stage-2 solves recomputed
  std::size_t cache_invalidations = 0;  ///< full drops (topology change)
};

/// How one solve call should run. Passed by value next to the problem so
/// the mode travels with the call, not with solver state.
struct SolveContext {
  /// Reuse stage-2 results retained from the previous interval (the
  /// per-pair memo) where the inputs are bitwise unchanged. The plan is
  /// bitwise identical to a cold solve's (enforced by
  /// tests/incremental_test.cpp); all retained state is dropped whenever
  /// the topology fingerprint moved, and a key mismatch recomputes.
  bool incremental = false;
  /// Previous interval's problem; only needed to seed the demand delta
  /// when this solver has no retained state yet (e.g. the previous
  /// interval was solved elsewhere). Ignored for cold solves.
  const TeProblem* prev = nullptr;
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
  /// Telemetry of the incremental machinery (default-initialized when
  /// the call ran cold).
  IncrementalStats incremental;
  /// Plan/encap contract audit (count_hop_budget_violations): allocations
  /// the solve placed on tunnels exceeding SiteLpOptions::max_sr_hops.
  /// Always 0 when the budget is unset. Non-zero means an internal bug
  /// (stage 1 and residual repair both filter by the budget): the solve
  /// fails loudly — solution.solved flips false, `error` is set, and the
  /// "te.hop_budget_violations" counter is bumped — rather than handing
  /// the dataplane routes it must refuse to encapsulate.
  std::size_t hop_budget_violations = 0;
  /// Learned-path telemetry (default-initialized unless the call ran with
  /// SolveContext::learned).
  LearnedStats learned;
  /// Human-readable failure description; empty on success.
  std::string error;

  bool ok() const noexcept { return error.empty(); }
};

class MegaTeSolver final : public Solver {
 public:
  explicit MegaTeSolver(MegaTeOptions options = {})
      : options_(options) {}

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

  /// Drops all state retained for incremental solves (memo and
  /// fingerprints). The next incremental solve runs cold.
  void reset_incremental();

  /// Replaces the solver options. Drops incremental state (options change
  /// the solve itself) and rebuilds the thread pool if `threads` changed.
  void set_options(const MegaTeOptions& options);
  const MegaTeOptions& options() const noexcept { return options_; }

  /// The solver's worker pool, created lazily on first use and reused
  /// across solves (rebuilt only when set_options changes `threads`).
  util::ThreadPool& thread_pool();

  /// The learned allocator backing SolveContext::learned, created lazily
  /// from MegaTeOptions::learned and retained across solves (its training
  /// state is the point). set_options drops it like the incremental state.
  LearnedAllocator& learned_allocator();

 private:
  SolveReport solve_learned(const TeProblem& problem,
                            const SolveContext& ctx);
  /// State retained between solve_incremental calls.
  struct IncrementalState {
    bool valid = false;
    std::uint64_t topo_fp = 0;          ///< links + tunnels + epsilon
    tm::PairFingerprintMap pair_fps;    ///< previous interval's demands
    ssp::PairMemoCache memo;
  };

  /// The round loop (SiteMerge -> stage 1 -> stage 2 -> residual repair
  /// per QoS class). `inc` is the retained state of an incremental solve,
  /// whose stage-2 memo it probes and fills; null on cold solves.
  SolveReport solve_impl(const TeProblem& problem, IncrementalState* inc);
  /// Refreshes (or drops) inc_state_ around solve_impl and fills
  /// SolveReport::incremental.
  SolveReport solve_incremental_impl(const TeProblem& problem,
                                     const TeProblem* prev);

  MegaTeOptions options_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::size_t pool_threads_ = 0;
  std::unique_ptr<LearnedAllocator> learned_;
  IncrementalState inc_state_;
};

}  // namespace megate::te

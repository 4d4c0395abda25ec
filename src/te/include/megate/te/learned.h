#pragma once
// Learning-accelerated allocation (ROADMAP item 3; Teal in PAPERS.md).
//
// The exact MegaTE solve prices every interval from scratch: a stage-1
// MaxSiteFlow LP plus per-pair FastSSP. Between five-minute intervals the
// matrix moves only marginally, so the *shape* of a good allocation — which
// tunnels a pair leans on — is highly predictable from recent intervals.
// LearnedAllocator exploits that: a tiny in-repo linear model (no external
// ML dependency) proposes per-pair tunnel split fractions directly, the
// shared feasibility-repair kernel (te/repair_kernel.h, the projection/
// refill loop extracted from TealSolver) makes the proposal
// capacity-feasible, and a greedy quantization pass turns the fractional
// splits into indivisible per-flow assignments (constraints (1b)/(1c)),
// topping up leftovers against link residuals exactly like the exact
// path's residual repair. Cost: O(pairs x tunnels x kRepairIterations +
// flows) — no LP, no per-pair SSP.
//
// Model: softmax over per-(pair, tunnel) features with one GLOBAL weight
// vector theta (7 features), trained online by SGD on the exact solver's
// realized splits whenever the exact path runs (warm-up and fallbacks).
// Features combine the pair's prior split EWMA, tunnel weight/hop count,
// capacity headroom vs pair demand, QoS mix, a demand-surge ratio against
// the pair's EWMA demand, and the pair's flow-list fingerprint delta
// (tm::fingerprint_flows). theta starts as {1, 0, ...}: feature 0 is
// log(prior + eps), so an untrained-but-seeded model replays the prior
// splits and SGD refines from there.
//
// The tier is one fixed algorithm: its step size, repair passes, EWMA
// factor and gate thresholds are the named constants of LearnedAllocator,
// not options. On a TWAN 100k replay it runs ~15x faster than the
// fastest exact lane at equal or better satisfied demand (DESIGN.md §15).
//
// The allocator never decides on its own whether its answer ships —
// MegaTeSolver's quality gate does (SolveContext::learned): predict ->
// repair -> audit (check_solution) -> accept, or fall back to the exact
// solve and fold that outcome back into training. The SR hop budget needs
// no audit: every tunnel of a topo::TunnelSet fits the set's budget.
// See DESIGN.md §15.

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "megate/te/repair_kernel.h"
#include "megate/te/types.h"
#include "megate/tm/delta.h"
#include "megate/tm/prediction.h"

namespace megate::te {

/// Telemetry of one learned-mode solve call (SolveReport::learned).
struct LearnedStats {
  bool attempted = false;  ///< SolveContext::learned was set
  bool accepted = false;   ///< the learned solution was returned
  /// Why the call fell back to the exact solve; empty when accepted.
  /// One of "untrained", "drift", "quality", "capacity".
  std::string fallback_reason;
  double predicted_satisfied_gbps = 0.0;  ///< learned solution, post-repair
  double exact_estimate_gbps = 0.0;       ///< gate threshold basis (EWMA)
  double drift_mape = 0.0;                ///< predictor MAPE vs the matrix
  std::size_t observations = 0;           ///< training observations so far
  double learned_seconds = 0.0;  ///< predict + repair + quantize wall time
};

/// Per-pair split predictor + feasibility repair. Thread-safe: allocate /
/// observe / the read accessors serialize on an internal mutex (the
/// OnlineAllocator pattern — training can run concurrently with a predict
/// from another thread).
class LearnedAllocator {
 public:
  static constexpr std::size_t kFeatures = 7;
  /// SGD step size for the global feature weights.
  static constexpr double kLearningRate = 0.05;
  /// Quality gate: accept the learned solution only when its satisfied
  /// demand reaches this fraction of the exact path's EWMA-estimated
  /// satisfied demand.
  static constexpr double kAcceptFraction = 0.95;
  /// Repair-kernel projection/refill passes on the proposed splits.
  static constexpr std::size_t kRepairIterations = 6;
  /// EWMA factor for the per-pair split priors / demand estimates, the
  /// flow predictor, and the exact-satisfied estimate the gate compares
  /// against.
  static constexpr double kEwmaAlpha = 0.3;
  /// The gate falls back (reason "untrained") until this many exact
  /// outcomes were observed.
  static constexpr std::size_t kMinObservations = 2;
  /// Distribution-shift guard: the gate falls back (reason "drift") when
  /// the flow predictor's MAPE against the incoming matrix exceeds this.
  static constexpr double kDriftMapeThreshold = 0.5;

  LearnedAllocator();

  /// Proposes a full solution for `problem`: model forward pass ->
  /// feasibility repair -> per-flow quantization + residual top-up. The
  /// result always has flow_tunnel assignments, never exceeds any link
  /// capacity, and only uses alive tunnels.
  /// Deterministic for a given model state.
  TeSolution allocate(const TeProblem& problem);

  /// Folds one exact outcome into training: per-pair split priors and
  /// demand EWMAs, fingerprint baselines, one SGD step per pair on the
  /// global weights, the flow predictor, and the gate's exact-satisfied
  /// estimate.
  void observe(const TeProblem& problem, const TeSolution& exact);

  std::size_t observations() const;
  /// EWMA of the exact path's satisfied fraction; 0 before any observe.
  double exact_satisfied_fraction() const;
  /// Flow-predictor MAPE of `traffic` vs the trained state (drift guard).
  double drift_mape(const tm::TrafficMatrix& traffic) const;
  /// Current global feature weights (copy; for tests/introspection).
  std::array<double, kFeatures> theta() const;

 private:
  struct PairModel {
    /// EWMA split fraction per tunnel, aligned with the pair's full
    /// tunnel list; reset to uniform when the list size changes.
    std::vector<double> prior;
    double demand_ewma = 0.0;
    tm::PairFingerprint fp;  ///< flow list at the last observe
  };

  /// Fills `f` for one (pair, tunnel): see the header comment for the
  /// feature definitions. `prior_a` is the pair's EWMA split fraction for
  /// this tunnel, `bottleneck` the min usable link capacity along it.
  static void features(double prior_a, double weight, std::size_t hops,
                       double bottleneck, double pair_demand,
                       double qos1_fraction, double surge, bool fp_changed,
                       std::array<double, kFeatures>& f);

  mutable std::mutex mu_;
  std::array<double, kFeatures> theta_;
  std::unordered_map<topo::SitePair, PairModel, topo::SitePairHash> pairs_;
  tm::FlowPredictor predictor_;
  double exact_satisfied_frac_ = 0.0;
  std::size_t observations_ = 0;
  RepairKernel kernel_;  ///< SoA arena reused across allocate() calls
};

}  // namespace megate::te

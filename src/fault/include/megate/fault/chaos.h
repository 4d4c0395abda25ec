#pragma once
// The chaos harness: the closed control loop hammered by a seeded
// FaultPlan and checked every tick against the paper's §7.4 availability
// claims. Each TE interval runs one ctrl::ControlIteration (repair,
// cold solve, check, publish) on the current, possibly degraded,
// topology and ticks the agent fleet through the interval while the
// injector fires shard crashes, link failures, pull drops and stale
// version reads. A mid-interval link change runs another iteration at
// once (the paper's <1 s reaction).
//
// Invariants: (1) every solved plan passes te::check_solution (a plan
// that fails is reported and not published); (2) the traffic the agents'
// *installed* tables imply never overloads an up link at any tick, old
// and new configs mixed; (3) within K intervals of the last fault every
// agent has applied the latest TE-db version. The same ChaosOptions give
// a bit-identical event log, violation list and final routing state, so
// the report's fingerprint is a one-line assertion.

#include <cstdint>
#include <string>
#include <vector>

#include "megate/ctrl/fault_hooks.h"
#include "megate/ctrl/telemetry.h"
#include "megate/fault/fault_plan.h"
#include "megate/te/site_lp.h"
#include "megate/tm/demand_stream.h"

namespace megate::fault {

/// How the control loop reaches the TE database.
enum class ChaosTransportMode : std::uint8_t {
  kInProcess,  ///< one shared KvStore, direct calls (the original loop)
  /// Real megate_shardd child processes, one per logical shard, reached
  /// over the §11 TCP protocol. Same chaos loop, same fingerprint.
  kTcp,
};

/// What a kShardCrash fault event does to a shard (TCP transport only;
/// in-process always uses the admin seam).
enum class ShardFaultMode : std::uint8_t {
  /// SET_SHARD_UP admin frame: the daemon stays alive, its KvStore
  /// marks the shard down (the direct analog of the in-process seam).
  kAdmin,
  /// SIGKILL the daemon; on recovery respawn it with --recover and
  /// replay its state with a snapshot publish (redo-log replay analog).
  kKillRestart,
  /// SIGSTOP the daemon (alive but mute — a network partition); on
  /// recovery SIGCONT + snapshot resync for anything it missed.
  kSigstop,
};

struct ChaosOptions {
  // --- scenario -----------------------------------------------------------
  std::uint32_t sites = 10;
  std::uint32_t duplex_links = 16;
  std::uint32_t endpoints_per_site = 4;
  /// Offered load relative to total link capacity (~0.15 = the paper's
  /// partially-satisfiable regime; keep well under 1.0 so transient mixed
  /// old/new routing states cannot overload links).
  double load = 0.15;
  std::size_t kv_shards = 4;

  // --- transport ----------------------------------------------------------
  ChaosTransportMode transport = ChaosTransportMode::kInProcess;
  ShardFaultMode shard_fault_mode = ShardFaultMode::kAdmin;
  /// Path to the megate_shardd binary (required for kTcp): the harness
  /// spawns one child per kv shard on kernel-assigned loopback ports.
  std::string shardd_binary;

  // --- schedule -----------------------------------------------------------
  std::size_t intervals = 20;
  double interval_s = 30.0;

  // --- agents -------------------------------------------------------------
  double poll_interval_s = 5.0;
  std::uint32_t max_pull_retries = 3;
  double retry_backoff_s = 1.0;
  /// Instances per host agent (>= 1): agents serve consecutive chunks of
  /// the id-sorted instance list, modelling hosts that run many
  /// VMs/containers behind one agent.
  std::size_t instances_per_agent = 1;
  /// Pull each host's entries as one KvStore::multi_get instead of
  /// per-key reads; the batched-pull property suite asserts both modes
  /// fingerprint identically under every fault plan.
  bool batch_pull = false;

  // --- faults -------------------------------------------------------------
  /// plan.horizon_s <= 0 auto-sizes to intervals * interval_s.
  FaultPlanOptions plan;
  /// Stage-1 LP backend knobs forwarded to the solver; the stage-1
  /// determinism suite forces the packing backend and asserts the report
  /// fingerprint repeats bit for bit (DESIGN.md §12).
  te::SiteLpOptions site_lp;

  // --- demand churn -------------------------------------------------------
  /// Mid-interval demand churn: a tm::DemandStream generated against the
  /// scenario's traffic over the whole run (churn.horizon_s is ignored)
  /// and drained tick by tick, so faults and churn strike in the same
  /// intervals. Events land in ChaosReport::churn_log and the
  /// fingerprint; all-zero counts (the default) leave the loop as is.
  /// Under churn a te::OnlineAllocator is rebased on every full publish:
  /// its reservations cap what each flow carries in the installed view.
  tm::ChurnOptions churn;
  /// Also patch the standing plan per churn event with that allocator
  /// and publish the patched routes; without it churn only moves the
  /// offered traffic and the boundary solves go stale against it. The
  /// allocator plans on the solver's derated capacities and tunnel set,
  /// so patched routes keep the mixed-state safety argument and the hop
  /// budget.
  bool online_patch = false;
  /// Drift fraction (of solve-time demand) that triggers an early full
  /// re-solve when online_patch is on (te::OnlineOptions threshold).
  double online_resolve_drift = 0.25;

  // --- invariants ---------------------------------------------------------
  /// K: intervals allowed for full convergence after the last fault.
  std::size_t convergence_intervals = 3;
  double capacity_tolerance = 1e-6;

  // --- observability ------------------------------------------------------
  /// Optional metrics registry. During the run it receives the driver's
  /// ctrl.iteration layer spans (the solver's among them), the agents'
  /// pull-latency histogram and per-interval chaos histograms; on
  /// completion the KvStore and ControlCounters
  /// totals are frozen into it (the live objects die with run_chaos's
  /// frame, so their exported names are re-bound to final values).
  /// Metrics never feed the report fingerprint — determinism is untouched.
  obs::MetricsRegistry* metrics = nullptr;
};

struct IntervalStats {
  std::size_t interval = 0;
  double start_s = 0.0;
  ctrl::Version version = 0;        ///< TE-db version at interval end
  std::size_t resolves = 0;         ///< solves this interval (>=1)
  double satisfied_ratio = 0.0;     ///< of the last solve this interval
  double max_link_utilization = 0.0;  ///< of the last solved plan
  /// Worst utilization implied by the agents' installed tables over the
  /// interval's ticks — the mixed old/new data-plane view.
  double installed_max_utilization = 0.0;
  /// Mean (over ticks) share of demand whose installed path was fully up:
  /// the availability metric of the Fig. 16-style chaos bench.
  double routed_demand_ratio = 0.0;
  std::size_t agents_converged = 0;
  std::size_t agents_total = 0;
  /// Churn telemetry (zero without ChaosOptions::churn).
  std::size_t churn_events = 0;
  std::size_t online_patches = 0;  ///< patched publishes this interval
};

struct ChaosReport {
  std::vector<std::string> event_log;    ///< injector activations
  std::vector<std::string> violations;   ///< empty on a healthy run
  /// Applied churn events (tm::DemandEvent::to_log lines, in order).
  /// Feeds the fingerprint; empty without churn, so golden fingerprints
  /// of churn-free runs are unchanged.
  std::vector<std::string> churn_log;
  std::vector<IntervalStats> intervals;
  ctrl::ControlCounters counters;
  ctrl::Version final_version = 0;
  double last_fault_end_s = 0.0;
  bool all_converged = false;            ///< at end of run
  /// Interval-ends after the last fault until full convergence (1-based;
  /// 0 when the fleet was already converged or never converged).
  std::size_t convergence_intervals_used = 0;
  bool converged_within_k = false;
  /// FNV-1a over event log + final agent routing state + violations:
  /// bit-identical across runs of the same options.
  std::uint64_t fingerprint = 0;

  bool ok() const noexcept {
    return violations.empty() && converged_within_k;
  }
};

/// Runs the chaos loop. Deterministic in `options`.
ChaosReport run_chaos(const ChaosOptions& options);

}  // namespace megate::fault

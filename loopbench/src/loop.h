#pragma once
// The closed control loop the benchmark replays.
//
// A boundary iteration runs, in order: repair_tunnels, an incremental
// MegaTeSolver::solve, the audits (SolveReport::ok + check_solution),
// Controller::publish_solution, one poll by every agent, a sampled
// tc_egress encap check, and OnlineAllocator::rebase. Between two
// boundaries the interval's DemandStream events are applied in timeline
// order, each patched with OnlineAllocator::apply. On fault workloads one
// duplex link fails mid-interval (repair, solve, audits, publish, poll)
// and is restored at the next boundary.

#include <cstdint>
#include <string>
#include <vector>

#include "megate/topo/failures.h"
#include "trace.h"
#include "world.h"

namespace loopbench {

/// What one boundary iteration measured.
struct BoundarySample {
  std::size_t interval = 0;
  bool traced = false;
  double iteration_s = 0.0;
  /// Boundary until every agent runs the new plan (steps 1-5).
  double plan_to_fleet_s = 0.0;
  double stage1_s = 0.0;
  double stage2_s = 0.0;
  double solve_s = 0.0;
  double satisfied_ratio = 0.0;
  std::uint64_t upserts = 0;
  std::uint64_t erases = 0;
  double delta_bytes_ratio = 0.0;
  std::size_t pairs_repaired = 0;
};

/// What one fault reaction measured.
struct FaultSample {
  std::size_t slot = 0;  ///< the failed link's place in the fault cycle
  double fault_to_plan_s = 0.0;
  std::size_t pairs_repaired = 0;
};

/// Attempted and failed operations, by kind.
struct Outcomes {
  std::uint64_t solves = 0, solves_failed = 0;
  std::uint64_t polls = 0, polls_failed = 0;
  std::uint64_t packets = 0, encap_mismatches = 0;
  /// OnlineAllocator work: churn events (apply) and rebases.
  std::uint64_t online_ops = 0, online_failed = 0;
  std::uint64_t snapshots = 0, snapshots_failed = 0;
  std::vector<std::string> messages;  ///< first few failure details

  std::uint64_t attempted() const noexcept {
    return solves + polls + packets + online_ops + snapshots;
  }
  std::uint64_t failed() const noexcept {
    return solves_failed + polls_failed + encap_mismatches +
           online_failed + snapshots_failed;
  }
  void note(const std::string& msg);
};

struct LoopStats {
  std::vector<BoundarySample> boundaries;
  std::vector<FaultSample> faults;
  std::vector<double> patch_us;
  std::size_t memo_hits = 0, memo_misses = 0;
  std::size_t solves = 0, cold_solves = 0;
  double admitted_gbps = 0.0, shed_gbps = 0.0;
  /// Chained digest of every published delta while fingerprinting is on.
  std::uint64_t plan_fingerprint = 0xCBF29CE484222325ULL;
  bool fingerprinting = true;
};

class ControlLoop {
 public:
  /// `outcomes` may be shared by several loops (one per setup).
  ControlLoop(World& world, Tracer& tracer, LoopStats& stats,
              Outcomes& outcomes)
      : w_(world), tracer_(tracer), stats_(stats), out_(outcomes) {}

  /// The bootstrap interval: first solve (cold), audits, first full
  /// publish, first fleet pull, first rebase. Part of setup.
  void bootstrap();

  /// One interval: its churn (and fault), then the boundary iteration
  /// that closes it. `traced` selects whether its episodes record spans.
  void run_interval(std::size_t k, bool traced);

 private:
  struct Plan {
    bool ok = false;
    double solve_s = 0.0;
    megate::te::SolveReport report;
  };
  /// Steps 2-3: solve and audit, counting any failure. `count` adds the
  /// solve to the memo and cold-solve ratios (loop solves only).
  Plan solve_and_audit(const char* where, bool count);
  /// Step 4-5: publish the plan, then poll every agent once. Returns
  /// the number of agents not at the published version afterwards.
  std::size_t publish_and_poll(const megate::te::TeSolution& sol);
  std::size_t poll_round(megate::ctrl::Version target);
  void encap_check(const megate::te::TeSolution& sol, std::uint64_t salt);
  void rebase(const megate::te::TeSolution& sol);
  void check_standing_plan();
  void fault_reaction(std::size_t k, bool traced);
  void boundary(std::size_t k, bool traced);
  std::size_t repair();

  World& w_;
  Tracer& tracer_;
  LoopStats& stats_;
  Outcomes& out_;
  std::uint64_t round_ = 0;
  std::vector<megate::topo::FailureEvent> failed_links_;
};

}  // namespace loopbench

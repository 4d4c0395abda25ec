#pragma once
// Seeded, deterministic fault schedules for the chaos experiments.
//
// A FaultPlan is a pre-computed list of fault events — shard crashes,
// duplex-link failures, pull-drop windows and stale-version windows —
// each with a start time, a duration and a target drawn from a seeded
// Rng. The same (options, topology shape)
// always produces the same plan, so a chaos run is reproducible
// bit-for-bit from a single 64-bit seed: the injector's event log and the
// final routing state are part of the repo's regression surface.
//
// Every fault ends before `horizon_s - quiet_tail_s`: the quiet tail is
// the fault-free recovery window over which the convergence invariants
// (all agents on the latest TE-db version within K intervals) are
// asserted.

#include <cstdint>
#include <string>
#include <vector>

namespace megate::fault {

enum class FaultKind : std::uint8_t {
  kShardCrash,          ///< TE-db shard down; reads refused, writes buffered
  kLinkFailure,         ///< duplex WAN link down mid-interval
  kPullDropWindow,      ///< agent pulls dropped with probability `magnitude`
  kStaleVersionWindow,  ///< version queries served `magnitude` versions late
};

const char* to_string(FaultKind k) noexcept;

struct FaultEvent {
  double start_s = 0.0;
  double duration_s = 0.0;
  FaultKind kind = FaultKind::kShardCrash;
  /// Shard index, duplex-link ordinal, or unused, per kind.
  std::uint64_t target = 0;
  /// Drop probability or staleness depth, per kind.
  double magnitude = 0.0;

  double end_s() const noexcept { return start_s + duration_s; }
};

/// How many faults of each kind to schedule, and when. Each kind's
/// duration range and magnitude are fixed in fault_plan.cpp.
struct FaultPlanOptions {
  std::uint64_t seed = 1;
  /// Faults are scheduled inside [0, horizon_s - quiet_tail_s].
  double horizon_s = 600.0;
  double quiet_tail_s = 120.0;

  std::size_t shard_crashes = 2;
  std::size_t link_failures = 2;
  std::size_t pull_drop_windows = 2;
  std::size_t stale_windows = 2;
};

class FaultPlan {
 public:
  /// Generates the schedule. `num_shards` / `num_duplex_links` bound the
  /// target draws; kinds whose target space is empty are skipped.
  /// Deterministic in (options, num_shards, num_duplex_links).
  static FaultPlan generate(const FaultPlanOptions& options,
                            std::size_t num_shards,
                            std::size_t num_duplex_links);

  /// Events sorted by (start, kind, target).
  const std::vector<FaultEvent>& events() const noexcept { return events_; }
  bool empty() const noexcept { return events_.empty(); }

  /// End time of the last fault (0 when the plan is empty): convergence
  /// invariants are measured from here.
  double last_fault_end_s() const noexcept;

  /// One line per event ("t=12.0s +8.0s shard-crash target=1"), the
  /// human-readable half of the deterministic chaos log.
  std::string to_log() const;

  std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::vector<FaultEvent> events_;
  std::uint64_t seed_ = 0;
};

}  // namespace megate::fault

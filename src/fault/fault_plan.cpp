#include "megate/fault/fault_plan.h"

#include <algorithm>
#include <cstdio>

#include "megate/util/rng.h"

namespace megate::fault {

const char* to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kShardCrash: return "shard-crash";
    case FaultKind::kLinkFailure: return "link-failure";
    case FaultKind::kPullDropWindow: return "pull-drop-window";
    case FaultKind::kStaleVersionWindow: return "stale-version-window";
  }
  return "?";
}

namespace {

// Duration ranges [min, max] in seconds and magnitudes per fault kind.
constexpr double kShardDownMinS = 5.0;
constexpr double kShardDownMaxS = 30.0;
constexpr double kLinkDownMinS = 20.0;
constexpr double kLinkDownMaxS = 60.0;
constexpr double kPullDropProb = 0.5;
constexpr double kPullWindowMinS = 5.0;
constexpr double kPullWindowMaxS = 20.0;
/// Versions a stale window serves behind the latest.
constexpr std::uint64_t kStaleDepth = 1;
constexpr double kStaleWindowMinS = 5.0;
constexpr double kStaleWindowMaxS = 15.0;

/// Samples `count` events of one kind. Each kind forks its own Rng stream
/// so adding events of one kind never perturbs another kind's draws.
void sample_kind(std::vector<FaultEvent>& out, util::Rng& base,
                 std::uint64_t stream, FaultKind kind, std::size_t count,
                 double window_s, double dur_min, double dur_max,
                 std::uint64_t target_space, double magnitude) {
  if (count == 0 || target_space == 0 || window_s <= 0.0) return;
  util::Rng rng = base.fork(stream);
  for (std::size_t i = 0; i < count; ++i) {
    FaultEvent e;
    e.kind = kind;
    e.duration_s = rng.uniform(dur_min, dur_max);
    // The whole event must fit before the quiet tail.
    e.duration_s = std::min(e.duration_s, window_s);
    const double latest = std::max(0.0, window_s - e.duration_s);
    e.start_s = latest > 0.0 ? rng.uniform(0.0, latest) : 0.0;
    e.target = rng.uniform_int(0, target_space - 1);
    e.magnitude = magnitude;
    out.push_back(e);
  }
}

}  // namespace

FaultPlan FaultPlan::generate(const FaultPlanOptions& options,
                              std::size_t num_shards,
                              std::size_t num_duplex_links) {
  FaultPlan plan;
  plan.seed_ = options.seed;
  util::Rng base(options.seed);
  const double window = options.horizon_s - options.quiet_tail_s;

  sample_kind(plan.events_, base, 1, FaultKind::kShardCrash,
              options.shard_crashes, window, kShardDownMinS, kShardDownMaxS,
              num_shards, 0.0);
  sample_kind(plan.events_, base, 2, FaultKind::kLinkFailure,
              options.link_failures, window, kLinkDownMinS, kLinkDownMaxS,
              num_duplex_links, 0.0);
  sample_kind(plan.events_, base, 3, FaultKind::kPullDropWindow,
              options.pull_drop_windows, window, kPullWindowMinS,
              kPullWindowMaxS, 1, kPullDropProb);
  sample_kind(plan.events_, base, 4, FaultKind::kStaleVersionWindow,
              options.stale_windows, window, kStaleWindowMinS,
              kStaleWindowMaxS, 1, static_cast<double>(kStaleDepth));

  std::sort(plan.events_.begin(), plan.events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.start_s != b.start_s) return a.start_s < b.start_s;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.target < b.target;
            });
  return plan;
}

double FaultPlan::last_fault_end_s() const noexcept {
  double last = 0.0;
  for (const FaultEvent& e : events_) last = std::max(last, e.end_s());
  return last;
}

std::string FaultPlan::to_log() const {
  std::string out;
  char line[128];
  for (const FaultEvent& e : events_) {
    std::snprintf(line, sizeof(line),
                  "t=%.3fs +%.3fs %s target=%llu magnitude=%.3f\n",
                  e.start_s, e.duration_s, to_string(e.kind),
                  static_cast<unsigned long long>(e.target), e.magnitude);
    out += line;
  }
  return out;
}

}  // namespace megate::fault

#pragma once
// In-memory span recorder for the control-loop benchmark.
//
// The benchmark opens one span around each public call it makes into a
// layer (build_tunnels, solve, publish_solution, KvTransport calls, agent
// polls, tc_egress, ...). A span holds its name, start, end, parent span
// and the episode it belongs to (a setup, a boundary iteration, a fault
// reaction or the churn between two boundaries). Spans stay in memory and
// are written out once, when the run ends.
//
// A disabled tracer records nothing: Scope construction is one branch,
// so the untraced run pays no clock reads for spans.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace loopbench {

enum class SpanName : std::uint8_t {
  kSetup,
  kTopology,
  kBuildTunnels,
  kTraffic,
  kAgents,
  kShardDaemons,
  kBootstrap,
  kIteration,
  kFaultReaction,
  kInjectFailure,
  kRepairTunnels,
  kSolve,
  kAudit,
  kCheckSolution,
  kPublish,
  kPublishDelta,
  kPollRound,
  kAgentPoll,
  kVersion,
  kMultiGet,
  kEncapCheck,
  kTcEgress,
  kRebase,
  kStreamGenerate,
  kPatch,
  kCount,
};

const char* span_name(SpanName n) noexcept;

enum class EpisodeKind : std::uint8_t { kSetup, kBoundary, kFault, kChurn };

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into Tracer::spans(), -1 = root
  std::int32_t episode = -1;
  SpanName name = SpanName::kSetup;

  double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

struct Episode {
  EpisodeKind kind = EpisodeKind::kSetup;
  bool traced = false;
};

class Tracer {
 public:
  static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// RAII span; inert when the tracer was off at construction.
  class Scope {
   public:
    Scope(Tracer* tracer, SpanName name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  ///< null when inert
    std::int32_t index_ = -1;
  };

  /// `available` false makes every episode untraced (the untraced run).
  explicit Tracer(bool available) : available_(available) {}

  bool on() const noexcept { return on_; }

  /// Starts a new episode; spans opened from now on belong to it.
  /// `traced` is ignored (false) when the tracer is unavailable.
  std::int32_t begin_episode(EpisodeKind kind, bool traced);

  Scope span(SpanName name) { return Scope(this, name); }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  const std::vector<Episode>& episodes() const noexcept { return episodes_; }

  /// Per span: its duration minus the time its direct children cover.
  std::vector<double> self_seconds() const;

  /// Writes every span as one tab-separated line:
  /// index, parent, episode, episode kind, name, start_ns, end_ns.
  bool write_tsv(const std::string& path) const;

 private:
  bool available_;
  bool on_ = false;
  std::int32_t episode_ = -1;
  std::int32_t open_ = -1;  ///< innermost open span
  std::vector<Span> spans_;
  std::vector<Episode> episodes_;
};

}  // namespace loopbench

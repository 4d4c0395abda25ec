#include "trace.h"

#include <fstream>

namespace loopbench {

const char* span_name(SpanName n) noexcept {
  switch (n) {
    case SpanName::kSetup: return "setup";
    case SpanName::kTopology: return "topo.make_topology";
    case SpanName::kBuildTunnels: return "topo.build_tunnels";
    case SpanName::kTraffic: return "tm.traffic";
    case SpanName::kAgents: return "ctrl.agents";
    case SpanName::kShardDaemons: return "net.shard_daemons";
    case SpanName::kBootstrap: return "bootstrap";
    case SpanName::kIteration: return "iteration";
    case SpanName::kFaultReaction: return "fault_reaction";
    case SpanName::kInjectFailure: return "topo.inject_link_failures";
    case SpanName::kRepairTunnels: return "topo.repair_tunnels";
    case SpanName::kSolve: return "te.solve";
    case SpanName::kAudit: return "te.audit";
    case SpanName::kCheckSolution: return "te.check_solution";
    case SpanName::kPublish: return "ctrl.publish_solution";
    case SpanName::kPublishDelta: return "kv.publish_delta";
    case SpanName::kPollRound: return "ctrl.poll_round";
    case SpanName::kAgentPoll: return "ctrl.agent_poll";
    case SpanName::kVersion: return "kv.version";
    case SpanName::kMultiGet: return "kv.multi_get";
    case SpanName::kEncapCheck: return "dataplane.encap_check";
    case SpanName::kTcEgress: return "dataplane.tc_egress";
    case SpanName::kRebase: return "te.online.rebase";
    case SpanName::kStreamGenerate: return "tm.demand_stream";
    case SpanName::kPatch: return "te.online.apply";
    case SpanName::kCount: break;
  }
  return "?";
}

Tracer::Scope::Scope(Tracer* tracer, SpanName name) {
  if (!tracer->on_) return;
  tracer_ = tracer;
  index_ = static_cast<std::int32_t>(tracer->spans_.size());
  Span s;
  s.name = name;
  s.parent = tracer->open_;
  s.episode = tracer->episode_;
  tracer->spans_.push_back(s);
  tracer->open_ = index_;
  // Read the clock last so the bookkeeping above is not inside the span.
  tracer->spans_.back().start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const std::int64_t end = now_ns();
  Span& s = tracer_->spans_[static_cast<std::size_t>(index_)];
  s.end_ns = end;
  tracer_->open_ = s.parent;
}

std::int32_t Tracer::begin_episode(EpisodeKind kind, bool traced) {
  Episode e;
  e.kind = kind;
  e.traced = available_ && traced;
  episodes_.push_back(e);
  episode_ = static_cast<std::int32_t>(episodes_.size()) - 1;
  on_ = e.traced;
  return episode_;
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].seconds();
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.seconds();
  }
  return self;
}

bool Tracer::write_tsv(const std::string& path) const {
  static const char* kKinds[] = {"setup", "boundary", "fault", "churn"};
  std::ofstream out(path);
  out << "index\tparent\tepisode\tkind\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const char* kind =
        s.episode >= 0
            ? kKinds[static_cast<int>(
                  episodes_[static_cast<std::size_t>(s.episode)].kind)]
            : "none";
    out << i << '\t' << s.parent << '\t' << s.episode << '\t' << kind << '\t'
        << span_name(s.name) << '\t' << s.start_ns << '\t' << s.end_ns
        << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace loopbench

#include "loop.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "megate/dataplane/sr_header.h"
#include "megate/dataplane/vxlan.h"
#include "megate/te/checker.h"
#include "megate/tm/demand_stream.h"
#include "megate/util/rng.h"

namespace loopbench {

using namespace megate;

void Outcomes::note(const std::string& msg) {
  if (messages.size() < 8) messages.push_back(msg);
}

namespace {

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(Tracer::now_ns() - start_ns) * 1e-9;
}

/// An instance's UDP frame for `t` (Ethernet + IPv4 + UDP + payload).
dataplane::Buffer udp_frame(const dataplane::FiveTuple& t) {
  constexpr std::size_t kPayload = 64;
  dataplane::Buffer b;
  dataplane::EthernetHeader eth;
  eth.serialize(b);
  dataplane::Ipv4Header ip;
  ip.protocol = t.proto;
  ip.src_ip = t.src_ip;
  ip.dst_ip = t.dst_ip;
  ip.total_length = static_cast<std::uint16_t>(
      dataplane::kIpv4HeaderSize + dataplane::kUdpHeaderSize + kPayload);
  ip.serialize(b);
  dataplane::UdpHeader udp;
  udp.src_port = t.src_port;
  udp.dst_port = t.dst_port;
  udp.length =
      static_cast<std::uint16_t>(dataplane::kUdpHeaderSize + kPayload);
  udp.serialize(b);
  b.insert(b.end(), kPayload, 0xAB);
  return b;
}

/// SR hops carried by an encapsulated underlay frame; empty when the SR
/// header does not parse.
std::vector<std::uint32_t> sr_hops(const dataplane::Buffer& packet) {
  constexpr std::size_t kSrOffset =
      dataplane::kEthernetHeaderSize + dataplane::kIpv4HeaderSize +
      dataplane::kUdpHeaderSize + dataplane::kVxlanHeaderSize;
  if (packet.size() <= kSrOffset) return {};
  const auto sr = dataplane::SrHeader::parse(
      dataplane::ConstBytes(packet).subspan(kSrOffset));
  return sr ? sr->hops : std::vector<std::uint32_t>{};
}

}  // namespace

ControlLoop::Plan ControlLoop::solve_and_audit(const char* where,
                                               bool count) {
  Plan plan;
  const te::TeProblem problem = w_.problem();
  {
    auto s = tracer_.span(SpanName::kSolve);
    const std::int64_t t0 = Tracer::now_ns();
    te::SolveContext ctx;
    ctx.incremental = true;
    plan.report = w_.solver->solve(problem, ctx);
    plan.solve_s = seconds_since(t0);
  }
  ++out_.solves;
  if (count) {
    const te::IncrementalStats& inc = plan.report.incremental;
    ++stats_.solves;
    if (!inc.used_incremental) ++stats_.cold_solves;
    stats_.memo_hits += inc.ssp_cache_hits;
    stats_.memo_misses += inc.ssp_cache_misses;
  }

  auto s = tracer_.span(SpanName::kAudit);
  std::string problem_text;
  if (!plan.report.ok()) {
    problem_text = plan.report.error;
  } else if (!plan.report.solution.solved) {
    problem_text = "solver declined the instance";
  } else {
    te::CheckOptions copt;
    copt.require_flow_assignment = true;
    te::CheckResult check;
    {
      auto c = tracer_.span(SpanName::kCheckSolution);
      check = te::check_solution(problem, plan.report.solution, copt);
    }
    if (!check.ok) {
      problem_text = "check_solution: " + (check.violations.empty()
                                               ? std::string("failed")
                                               : check.violations.front());
    }
  }
  if (!problem_text.empty()) {
    ++out_.solves_failed;
    out_.note(std::string(where) + " solve: " + problem_text);
    return plan;
  }
  plan.ok = true;
  return plan;
}

std::size_t ControlLoop::publish_and_poll(const te::TeSolution& sol) {
  ctrl::Version version = 0;
  {
    auto s = tracer_.span(SpanName::kPublish);
    version = w_.controller->publish_solution(w_.problem(), sol);
  }
  if (stats_.fingerprinting) {
    std::uint64_t& fp = stats_.plan_fingerprint;
    fp = (fp ^ w_.controller_seam->last_delta_digest()) * 0x100000001B3ULL;
    fp = (fp ^ version) * 0x100000001B3ULL;
  }
  return poll_round(version);
}

std::size_t ControlLoop::poll_round(ctrl::Version target) {
  auto s = tracer_.span(SpanName::kPollRound);
  // Agents poll once per simulated second (AgentOptions::poll_interval_s
  // = 1, phases in [0, 1)), so ticking to the next whole second makes
  // every agent poll exactly once.
  const double now = static_cast<double>(++round_);
  std::size_t behind = 0;
  for (ctrl::EndpointAgent& agent : w_.agents) {
    {
      auto p = tracer_.span(SpanName::kAgentPoll);
      agent.tick(now);
    }
    ++out_.polls;
    if (agent.applied_version() != target) {
      ++behind;
      ++out_.polls_failed;
      out_.note("agent " + std::to_string(agent.instance_id()) +
                " at version " + std::to_string(agent.applied_version()) +
                " after a poll, published " + std::to_string(target));
    }
  }
  return behind;
}

void ControlLoop::encap_check(const te::TeSolution& sol, std::uint64_t salt) {
  auto s = tracer_.span(SpanName::kEncapCheck);
  std::vector<topo::SitePair> pairs;
  for (const auto& [pair, alloc] : sol.pairs) {
    if (!alloc.flow_tunnel.empty()) pairs.push_back(pair);
  }
  if (pairs.empty()) return;
  std::sort(pairs.begin(), pairs.end(),
            [](const topo::SitePair& a, const topo::SitePair& b) {
              return a.src != b.src ? a.src < b.src : a.dst < b.dst;
            });
  util::Rng rng(mix_seed(w_.seed, salt));
  for (std::size_t n = 0; n < w_.spec.encap_samples; ++n) {
    const topo::SitePair pair = pairs[rng.uniform_int(0, pairs.size() - 1)];
    const auto& flows = w_.traffic.pairs().at(pair);
    const auto& assigned = sol.pairs.at(pair).flow_tunnel;
    const auto& tunnels = w_.tunnels.tunnels(pair.src, pair.dst);
    const auto valid = [&](std::size_t i) {
      return i < assigned.size() && assigned[i] >= 0 &&
             static_cast<std::size_t>(assigned[i]) < tunnels.size();
    };
    if (flows.empty()) continue;
    const std::size_t start = rng.uniform_int(0, flows.size() - 1);
    std::size_t pick = flows.size();
    for (std::size_t j = 0; j < flows.size(); ++j) {
      const std::size_t i = (start + j) % flows.size();
      if (valid(i) && w_.hosted(flows[i].src)) {
        pick = i;
        break;
      }
    }
    if (pick == flows.size()) continue;
    const tm::EndpointDemand& flow = flows[pick];

    // The route the controller publishes for (instance, destination
    // site): the first largest assigned flow of the instance wins.
    double best = -1.0;
    std::int32_t tunnel = -1;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (flows[i].src == flow.src && valid(i) &&
          flows[i].demand_gbps > best) {
        best = flows[i].demand_gbps;
        tunnel = assigned[i];
      }
    }
    std::vector<std::uint32_t> expected;
    for (topo::EdgeId e : tunnels[static_cast<std::size_t>(tunnel)].links) {
      expected.push_back(w_.graph.link(e).dst);
    }

    const std::size_t host = w_.agent_of(flow.src);
    const std::vector<std::uint32_t>& installed =
        w_.agents[host].hops_for(flow.src, pair.dst);
    ++out_.packets;
    std::string problem;
    if (installed != expected) {
      problem = "installed route differs from the published plan";
    } else {
      dataplane::FiveTuple tuple;
      tuple.src_ip = dataplane::make_overlay_ip(
          pair.src, tm::endpoint_index(flow.src));
      tuple.dst_ip = dataplane::make_overlay_ip(
          pair.dst, tm::endpoint_index(flow.dst));
      tuple.proto = dataplane::kProtoUdp;
      tuple.src_port = static_cast<std::uint16_t>(40000 + pick % 20000);
      tuple.dst_port = 8080;
      dataplane::HostStack& stack = *w_.stacks[host];
      stack.on_conntrack_event(tuple, w_.pid_of(flow.src));
      const dataplane::Buffer frame = udp_frame(tuple);
      dataplane::TcVerdict verdict;
      {
        auto e = tracer_.span(SpanName::kTcEgress);
        verdict = stack.tc_egress(frame, 0x0B000000u + pair.dst);
      }
      if (verdict.action != dataplane::TcVerdict::Action::kEncapsulated) {
        problem = "tc_egress did not encapsulate";
      } else if (sr_hops(verdict.packet) != installed) {
        problem = "SR hops differ from the installed route";
      }
    }
    if (!problem.empty()) {
      ++out_.encap_mismatches;
      out_.note("instance " + std::to_string(flow.src) + " -> site " +
                std::to_string(pair.dst) + ": " + problem);
    }
  }
}

void ControlLoop::rebase(const te::TeSolution& sol) {
  auto s = tracer_.span(SpanName::kRebase);
  ++out_.online_ops;
  try {
    w_.allocator->rebase(w_.problem(), sol);
  } catch (const std::exception& e) {
    ++out_.online_failed;
    out_.note(std::string("rebase threw: ") + e.what());
  }
}

std::size_t ControlLoop::repair() {
  auto s = tracer_.span(SpanName::kRepairTunnels);
  const std::size_t before = w_.tunnels.stats().pairs_built;
  topo::repair_tunnels(w_.graph, w_.tunnels, w_.tunnel_options);
  return w_.tunnels.stats().pairs_built - before;
}

void ControlLoop::check_standing_plan() {
  // The allocator vouches for its reservations, not for full demands:
  // audit the patched plan against the policing view, where each flow
  // carries min(reservation, demand).
  const te::TeSolution standing = w_.allocator->snapshot();
  const auto reserved = w_.allocator->reservations_snapshot();
  tm::TrafficMatrix policed = w_.traffic;
  for (auto& [pair, flows] : policed.pairs()) {
    const auto it = reserved.find(pair);
    if (it == reserved.end()) continue;
    for (std::size_t i = 0; i < flows.size() && i < it->second.size(); ++i) {
      flows[i].demand_gbps = std::min(flows[i].demand_gbps, it->second[i]);
    }
  }
  te::TeProblem problem = w_.problem();
  problem.traffic = &policed;
  te::CheckOptions copt;
  copt.require_flow_assignment = true;
  const te::CheckResult check = te::check_solution(problem, standing, copt);
  ++out_.snapshots;
  if (!check.ok) {
    ++out_.snapshots_failed;
    out_.note(
        "standing plan: " +
        (check.violations.empty() ? std::string("check_solution failed")
                                  : check.violations.front()));
  }
}

void ControlLoop::bootstrap() {
  auto s = tracer_.span(SpanName::kBootstrap);
  const Plan plan = solve_and_audit("bootstrap", /*count=*/false);
  if (!plan.ok) return;
  publish_and_poll(plan.report.solution);
  rebase(plan.report.solution);
}

void ControlLoop::fault_reaction(std::size_t k, bool traced) {
  FaultSample f;
  const std::size_t j = k % w_.fault_seeds.size();
  f.slot = w_.fault_slots[j];
  tracer_.begin_episode(EpisodeKind::kFault, traced);
  {
    auto s = tracer_.span(SpanName::kInjectFailure);
    failed_links_ = topo::inject_link_failures(w_.graph, 1, w_.fault_seeds[j]);
  }
  // The link is down from here on.
  const std::int64_t t0 = Tracer::now_ns();
  {
    auto s = tracer_.span(SpanName::kFaultReaction);
    f.pairs_repaired = repair();
    const Plan plan = solve_and_audit("fault", /*count=*/true);
    if (plan.ok) {
      const bool converged = publish_and_poll(plan.report.solution) == 0;
      f.fault_to_plan_s = seconds_since(t0);
      rebase(plan.report.solution);
      if (converged) stats_.faults.push_back(f);
    }
  }
  tracer_.begin_episode(EpisodeKind::kChurn, traced);
}

void ControlLoop::boundary(std::size_t k, bool traced) {
  check_standing_plan();
  if (!failed_links_.empty()) {
    topo::restore_failures(w_.graph, failed_links_);
    failed_links_.clear();
    w_.tunnels = w_.built_tunnels;
  }
  BoundarySample b;
  b.interval = k;
  tracer_.begin_episode(EpisodeKind::kBoundary, traced);
  b.traced = tracer_.on();
  const std::int64_t t0 = Tracer::now_ns();
  bool ok = false;
  {
    auto s = tracer_.span(SpanName::kIteration);
    b.pairs_repaired = repair();
    const Plan plan = solve_and_audit("boundary", /*count=*/true);
    if (plan.ok) {
      const te::TeSolution& sol = plan.report.solution;
      ok = publish_and_poll(sol) == 0;
      b.plan_to_fleet_s = seconds_since(t0);
      encap_check(sol, 2000 + k);
      rebase(sol);
      b.solve_s = plan.solve_s;
      b.stage1_s = plan.report.stage1_seconds;
      b.stage2_s = plan.report.stage2_seconds;
      b.satisfied_ratio = sol.satisfied_ratio();
      b.upserts = w_.controller->last_publish_upserts();
      b.erases = w_.controller->last_publish_erases();
      const double full =
          static_cast<double>(w_.controller->full_table_bytes());
      b.delta_bytes_ratio =
          full > 0.0
              ? static_cast<double>(w_.controller->last_publish_bytes()) / full
              : 0.0;
    }
  }
  b.iteration_s = seconds_since(t0);
  if (ok) stats_.boundaries.push_back(b);
}

void ControlLoop::run_interval(std::size_t k, bool traced) {
  tracer_.begin_episode(EpisodeKind::kChurn, traced);
  tm::ChurnOptions copt;
  copt.seed = mix_seed(w_.seed, 3000 + k);
  copt.horizon_s = 300.0;
  copt.flow_scale_events = w_.spec.flow_scale_events;
  copt.flash_crowds = w_.spec.flash_crowds;
  copt.flash_crowd_multiplier = kFlashCrowdMultiplier;
  copt.endpoint_arrivals = w_.spec.arrivals;
  copt.endpoint_departures = w_.spec.departures;
  tm::DemandStream stream;
  {
    auto s = tracer_.span(SpanName::kStreamGenerate);
    stream = tm::DemandStream::generate(w_.traffic, copt);
  }
  const auto& events = stream.events();
  const std::size_t fault_at = w_.spec.faults
                                   ? events.size() / 2
                                   : std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i == fault_at) fault_reaction(k, traced);
    ++out_.online_ops;
    try {
      tm::DemandStream::apply(events[i], w_.traffic);
      const std::int64_t t0 = Tracer::now_ns();
      te::PatchResult patch;
      {
        auto s = tracer_.span(SpanName::kPatch);
        patch = w_.allocator->apply(events[i]);
      }
      stats_.patch_us.push_back(
          static_cast<double>(Tracer::now_ns() - t0) * 1e-3);
      stats_.admitted_gbps += patch.admitted_gbps;
      stats_.shed_gbps += patch.shed_gbps;
    } catch (const std::exception& e) {
      ++out_.online_failed;
      out_.note(std::string("churn event threw: ") + e.what());
    }
  }
  if (w_.spec.faults && fault_at >= events.size()) fault_reaction(k, traced);
  boundary(k, traced);
}

}  // namespace loopbench

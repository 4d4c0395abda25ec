#include "megate/fault/injector.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "megate/topo/failures.h"

namespace megate::fault {

FaultInjector::FaultInjector(const FaultPlan& plan, Bindings bindings)
    : plan_(plan),
      bind_(bindings),
      drop_rng_(plan.seed() ^ 0xC2B2AE3D27D4EB4FULL) {
  if (bind_.graph != nullptr) {
    // Pair up duplex halves: (u, v) with u < v keyed once, the first edge
    // in id order is "forward". Parallel duplexes pair independently.
    std::map<std::pair<topo::NodeId, topo::NodeId>, std::vector<topo::EdgeId>>
        half;
    const auto links = bind_.graph->links();
    for (topo::EdgeId e = 0; e < links.size(); ++e) {
      const auto& l = links[e];
      half[{std::min(l.src, l.dst), std::max(l.src, l.dst)}].push_back(e);
    }
    for (auto& [key, edges] : half) {
      for (std::size_t i = 0; i + 1 < edges.size(); i += 2) {
        duplex_.emplace_back(edges[i], edges[i + 1]);
      }
    }
  }
}

void FaultInjector::log_event(const char* what, const FaultEvent& e) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "t=%.3fs %s %s target=%llu magnitude=%.3f", now_s_, what,
                to_string(e.kind),
                static_cast<unsigned long long>(e.target), e.magnitude);
  log_.emplace_back(line);
}

bool FaultInjector::take_topology_changed() noexcept {
  const bool changed = topology_changed_;
  topology_changed_ = false;
  return changed;
}

void FaultInjector::activate(const FaultEvent& e) {
  Active a;
  a.event = e;
  switch (e.kind) {
    case FaultKind::kShardCrash:
      if (bind_.store == nullptr ||
          e.target >= bind_.store->num_shards()) {
        log_event("skipped (no store)", e);
        return;
      }
      bind_.store->set_shard_up(static_cast<std::size_t>(e.target), false);
      break;
    case FaultKind::kLinkFailure: {
      if (bind_.graph == nullptr || duplex_.empty()) {
        log_event("skipped (no graph)", e);
        return;
      }
      // Probe from the planned ordinal for a duplex link that is up and
      // whose removal keeps its two ends connected (the paper's failure
      // scenarios assume TE reroutes, not partitions). Deterministic:
      // probing order depends only on current link state.
      bool placed = false;
      for (std::size_t probe = 0; probe < duplex_.size(); ++probe) {
        const auto [fwd, rev] =
            duplex_[(e.target + probe) % duplex_.size()];
        if (!bind_.graph->link(fwd).up || !bind_.graph->link(rev).up) {
          continue;
        }
        if (!topo::try_fail_link(*bind_.graph, {fwd, rev})) {
          continue;
        }
        a.forward = fwd;
        a.reverse = rev;
        placed = true;
        break;
      }
      if (!placed) {
        log_event("skipped (would partition)", e);
        return;
      }
      topology_changed_ = true;
      break;
    }
    case FaultKind::kPullDropWindow:
    case FaultKind::kStaleVersionWindow:
      break;  // consulted via the hook methods while active
  }
  log_event("activated", e);
  active_.push_back(a);
}

void FaultInjector::deactivate(const Active& a) {
  switch (a.event.kind) {
    case FaultKind::kShardCrash: {
      // Only recover the shard if no other active crash still holds it.
      const bool still_down = std::any_of(
          active_.begin(), active_.end(), [&](const Active& other) {
            return other.event.kind == FaultKind::kShardCrash &&
                   other.event.target == a.event.target;
          });
      if (!still_down && bind_.store != nullptr) {
        bind_.store->set_shard_up(static_cast<std::size_t>(a.event.target),
                                  true);
      }
      break;
    }
    case FaultKind::kLinkFailure:
      if (bind_.graph != nullptr && a.forward != topo::kInvalidEdge) {
        bind_.graph->set_link_state(a.forward, true);
        bind_.graph->set_link_state(a.reverse, true);
        topology_changed_ = true;
      }
      break;
    case FaultKind::kPullDropWindow:
    case FaultKind::kStaleVersionWindow:
      break;
  }
  log_event("recovered", a.event);
}

void FaultInjector::advance_to(double now_s) {
  now_s_ = now_s;
  // Deactivate expired windows first so a back-to-back crash of the same
  // shard re-activates cleanly.
  for (std::size_t i = 0; i < active_.size();) {
    if (active_[i].event.end_s() <= now_s) {
      const Active done = active_[i];
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
      deactivate(done);
    } else {
      ++i;
    }
  }
  const auto& events = plan_.events();
  while (next_event_ < events.size() &&
         events[next_event_].start_s <= now_s) {
    const FaultEvent e = events[next_event_++];
    if (e.end_s() <= now_s) {
      // The whole window fell between two ticks; it can't affect anything.
      log_event("elapsed between ticks", e);
      continue;
    }
    activate(e);
  }
}

bool FaultInjector::drop_pull(std::uint64_t /*instance_id*/) {
  double prob = 0.0;
  for (const Active& a : active_) {
    if (a.event.kind == FaultKind::kPullDropWindow) {
      prob = std::max(prob, a.event.magnitude);
    }
  }
  if (prob <= 0.0) return false;
  return drop_rng_.uniform() < prob;
}

ctrl::Version FaultInjector::observed_version(std::uint64_t /*instance_id*/,
                                              ctrl::Version actual) {
  std::uint64_t depth = 0;
  for (const Active& a : active_) {
    if (a.event.kind == FaultKind::kStaleVersionWindow) {
      depth = std::max(depth, static_cast<std::uint64_t>(a.event.magnitude));
    }
  }
  if (depth == 0) return actual;
  const ctrl::Version stale = actual >= depth ? actual - depth : 0;
  if (stale != actual && bind_.counters != nullptr) {
    ++bind_.counters->stale_version_reads;
  }
  return stale;
}

}  // namespace megate::fault

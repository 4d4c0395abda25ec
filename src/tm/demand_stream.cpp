#include "megate/tm/demand_stream.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "megate/obs/metrics.h"
#include "megate/tm/delta.h"
#include "megate/util/rng.h"

namespace megate::tm {
namespace {

constexpr double kPi = 3.14159265358979323846;
/// Peak-to-mean amplitude of the diurnal sinusoid (0.3 = ±30%).
constexpr double kDiurnalAmplitude = 0.3;
/// Flows a fresh endpoint brings (towards existing endpoints).
constexpr std::uint32_t kArrivalFlows = 3;
/// Mean demand of an arrival flow, relative to the current matrix mean.
constexpr double kArrivalDemandFactor = 1.0;

/// Pairs sorted by (src, dst): the deterministic iteration order every
/// target draw uses (the matrix's unordered_map order is not stable
/// across platforms or inserts).
std::vector<topo::SitePair> sorted_pairs(const TrafficMatrix& m) {
  std::vector<topo::SitePair> out;
  out.reserve(m.pairs().size());
  for (const auto& [pair, flows] : m.pairs()) {
    if (!flows.empty()) out.push_back(pair);
  }
  std::sort(out.begin(), out.end(),
            [](const topo::SitePair& a, const topo::SitePair& b) {
              return a.src != b.src ? a.src < b.src : a.dst < b.dst;
            });
  return out;
}

void insert_sorted(std::vector<topo::SitePair>& pairs, topo::SitePair p) {
  auto it = std::lower_bound(
      pairs.begin(), pairs.end(), p,
      [](const topo::SitePair& a, const topo::SitePair& b) {
        return a.src != b.src ? a.src < b.src : a.dst < b.dst;
      });
  if (it == pairs.end() || !(*it == p)) pairs.insert(it, p);
}

/// Draws a (pair, flow) with demand > 0, or returns false after a bounded
/// number of rejections (matrix drained to zero).
bool draw_live_flow(util::Rng& rng, const TrafficMatrix& m,
                    const std::vector<topo::SitePair>& pairs,
                    topo::SitePair* pair_out, std::uint32_t* index_out) {
  if (pairs.empty()) return false;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const topo::SitePair pair =
        pairs[rng.uniform_int(0, pairs.size() - 1)];
    const auto& flows = m.pairs().at(pair);
    if (flows.empty()) continue;
    const std::uint32_t idx = static_cast<std::uint32_t>(
        rng.uniform_int(0, flows.size() - 1));
    if (flows[idx].demand_gbps > 0.0) {
      *pair_out = pair;
      *index_out = idx;
      return true;
    }
  }
  return false;
}

double mean_live_demand(const TrafficMatrix& m,
                        const std::vector<topo::SitePair>& pairs) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const topo::SitePair& p : pairs) {
    for (const EndpointDemand& d : m.pairs().at(p)) {
      if (d.demand_gbps > 0.0) {
        sum += d.demand_gbps;
        ++n;
      }
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

QosClass draw_qos(util::Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.10) return QosClass::kClass1;
  if (u < 0.70) return QosClass::kClass2;
  return QosClass::kClass3;
}

/// The schedule: kinds and times drawn up front, sorted by (time, draw
/// ordinal), targets resolved later in time order against the evolving
/// working matrix.
struct Slot {
  double time_s = 0.0;
  std::size_t ordinal = 0;
  DemandEventKind kind = DemandEventKind::kFlowScaleUp;
  std::size_t step = 0;  ///< diurnal step index
};

}  // namespace

const char* to_string(DemandEventKind k) noexcept {
  switch (k) {
    case DemandEventKind::kFlowScaleUp: return "flow-scale-up";
    case DemandEventKind::kFlowScaleDown: return "flow-scale-down";
    case DemandEventKind::kFlashCrowd: return "flash-crowd";
    case DemandEventKind::kDiurnalRamp: return "diurnal-ramp";
    case DemandEventKind::kEndpointArrival: return "endpoint-arrival";
    case DemandEventKind::kEndpointDeparture: return "endpoint-departure";
  }
  return "?";
}

double DemandEvent::delta_gbps() const noexcept {
  double d = 0.0;
  for (const FlowChange& c : changes) {
    d += std::abs(c.after_gbps - c.before_gbps);
  }
  return d;
}

double DemandEvent::net_gbps() const noexcept {
  double d = 0.0;
  for (const FlowChange& c : changes) d += c.after_gbps - c.before_gbps;
  return d;
}

std::string DemandEvent::to_log() const {
  char buf[160];
  const char* kind_s = to_string(kind);
  switch (kind) {
    case DemandEventKind::kFlowScaleUp:
    case DemandEventKind::kFlowScaleDown:
      if (!changes.empty()) {
        const FlowChange& c = changes.front();
        std::snprintf(buf, sizeof(buf),
                      "t=%.3fs churn#%llu %s pair=%u->%u flow=%u "
                      "%.4f->%.4fgbps",
                      time_s, static_cast<unsigned long long>(id), kind_s,
                      c.pair.src, c.pair.dst, c.flow_index, c.before_gbps,
                      c.after_gbps);
        return buf;
      }
      break;
    case DemandEventKind::kFlashCrowd:
      if (!changes.empty()) {
        const FlowChange& c = changes.front();
        std::snprintf(buf, sizeof(buf),
                      "t=%.3fs churn#%llu %s pair=%u->%u flows=%zu "
                      "delta=%+.4fgbps",
                      time_s, static_cast<unsigned long long>(id), kind_s,
                      c.pair.src, c.pair.dst, changes.size(), net_gbps());
        return buf;
      }
      break;
    case DemandEventKind::kDiurnalRamp:
      std::snprintf(buf, sizeof(buf),
                    "t=%.3fs churn#%llu %s flows=%zu delta=%+.4fgbps",
                    time_s, static_cast<unsigned long long>(id), kind_s,
                    changes.size(), net_gbps());
      return buf;
    case DemandEventKind::kEndpointArrival:
    case DemandEventKind::kEndpointDeparture:
      if (!changes.empty()) {
        const EndpointId ep = changes.front().src;
        std::snprintf(buf, sizeof(buf),
                      "t=%.3fs churn#%llu %s ep=%llu flows=%zu "
                      "delta=%+.4fgbps",
                      time_s, static_cast<unsigned long long>(id), kind_s,
                      static_cast<unsigned long long>(ep), changes.size(),
                      net_gbps());
        return buf;
      }
      break;
  }
  std::snprintf(buf, sizeof(buf), "t=%.3fs churn#%llu %s (empty)", time_s,
                static_cast<unsigned long long>(id), kind_s);
  return buf;
}

DemandStream DemandStream::generate(const TrafficMatrix& base,
                                    const ChurnOptions& options) {
  DemandStream stream;
  if (!options.enabled() || options.horizon_s <= 0.0) return stream;
  util::Rng rng(options.seed ^ 0xC0FFEE5EED5ULL);

  // --- schedule: kinds + times first, targets later ------------------------
  std::vector<Slot> slots;
  std::size_t ordinal = 0;
  auto schedule = [&](std::size_t count, DemandEventKind kind) {
    for (std::size_t i = 0; i < count; ++i) {
      Slot s;
      s.time_s = rng.uniform(0.0, options.horizon_s);
      s.ordinal = ordinal++;
      s.kind = kind;
      // Scale events alternate up/down on a coin flip.
      if (kind == DemandEventKind::kFlowScaleUp && rng.uniform() < 0.5) {
        s.kind = DemandEventKind::kFlowScaleDown;
      }
      slots.push_back(s);
    }
  };
  schedule(options.flow_scale_events, DemandEventKind::kFlowScaleUp);
  schedule(options.flash_crowds, DemandEventKind::kFlashCrowd);
  schedule(options.endpoint_arrivals, DemandEventKind::kEndpointArrival);
  schedule(options.endpoint_departures,
           DemandEventKind::kEndpointDeparture);
  for (std::size_t j = 0; j < options.diurnal_steps; ++j) {
    Slot s;
    s.time_s = options.horizon_s * static_cast<double>(j + 1) /
               static_cast<double>(options.diurnal_steps + 1);
    s.ordinal = ordinal++;
    s.kind = DemandEventKind::kDiurnalRamp;
    s.step = j;
    slots.push_back(s);
  }
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return a.time_s != b.time_s ? a.time_s < b.time_s
                                : a.ordinal < b.ordinal;
  });

  // --- simulate application in time order ----------------------------------
  TrafficMatrix work = base;
  std::vector<topo::SitePair> pairs = sorted_pairs(work);
  const double base_mean = mean_live_demand(work, pairs);
  std::uint32_t arrivals = 0;

  auto diurnal_level = [&](std::size_t step) {
    // Level after `step` completed steps of one full sinusoid period.
    const double phase = static_cast<double>(step) /
                         static_cast<double>(options.diurnal_steps + 1);
    return 1.0 + kDiurnalAmplitude * std::sin(2.0 * kPi * phase);
  };

  for (const Slot& slot : slots) {
    DemandEvent ev;
    ev.time_s = slot.time_s;
    ev.kind = slot.kind;
    switch (slot.kind) {
      case DemandEventKind::kFlowScaleUp:
      case DemandEventKind::kFlowScaleDown: {
        topo::SitePair pair;
        std::uint32_t idx = 0;
        if (!draw_live_flow(rng, work, pairs, &pair, &idx)) break;
        auto& flows = work.pairs().at(pair);
        const double factor =
            rng.uniform(options.scale_up_min, options.scale_up_max);
        FlowChange c;
        c.pair = pair;
        c.flow_index = idx;
        c.src = flows[idx].src;
        c.dst = flows[idx].dst;
        c.qos = flows[idx].qos;
        c.before_gbps = flows[idx].demand_gbps;
        c.after_gbps = slot.kind == DemandEventKind::kFlowScaleUp
                           ? c.before_gbps * factor
                           : c.before_gbps / factor;
        flows[idx].demand_gbps = c.after_gbps;
        ev.changes.push_back(c);
        break;
      }
      case DemandEventKind::kFlashCrowd: {
        topo::SitePair pair;
        std::uint32_t idx = 0;
        if (!draw_live_flow(rng, work, pairs, &pair, &idx)) break;
        auto& flows = work.pairs().at(pair);
        for (std::uint32_t i = 0; i < flows.size(); ++i) {
          if (flows[i].demand_gbps <= 0.0) continue;
          FlowChange c;
          c.pair = pair;
          c.flow_index = i;
          c.src = flows[i].src;
          c.dst = flows[i].dst;
          c.qos = flows[i].qos;
          c.before_gbps = flows[i].demand_gbps;
          c.after_gbps =
              c.before_gbps * options.flash_crowd_multiplier;
          flows[i].demand_gbps = c.after_gbps;
          ev.changes.push_back(c);
        }
        break;
      }
      case DemandEventKind::kDiurnalRamp: {
        const double factor =
            diurnal_level(slot.step + 1) / diurnal_level(slot.step);
        for (const topo::SitePair& pair : pairs) {
          auto& flows = work.pairs().at(pair);
          for (std::uint32_t i = 0; i < flows.size(); ++i) {
            if (flows[i].demand_gbps <= 0.0) continue;
            FlowChange c;
            c.pair = pair;
            c.flow_index = i;
            c.src = flows[i].src;
            c.dst = flows[i].dst;
            c.qos = flows[i].qos;
            c.before_gbps = flows[i].demand_gbps;
            c.after_gbps = c.before_gbps * factor;
            flows[i].demand_gbps = c.after_gbps;
            ev.changes.push_back(c);
          }
        }
        break;
      }
      case DemandEventKind::kEndpointArrival: {
        if (base_mean <= 0.0) break;
        // The fresh endpoint homes on the site of a drawn live flow; its
        // flows target the dst endpoints of further drawn flows. Index
        // 0x40000000+n cannot collide with generated layouts (their
        // per-site indices are dense from 0).
        topo::SitePair seat;
        std::uint32_t seat_idx = 0;
        if (!draw_live_flow(rng, work, pairs, &seat, &seat_idx)) break;
        const topo::NodeId site = seat.src;
        const EndpointId ep =
            make_endpoint(site, 0x40000000u + arrivals++);
        for (std::uint32_t f = 0; f < kArrivalFlows; ++f) {
          topo::SitePair tp;
          std::uint32_t ti = 0;
          if (!draw_live_flow(rng, work, pairs, &tp, &ti)) break;
          const EndpointDemand& target = work.pairs().at(tp)[ti];
          if (endpoint_site(target.dst) == site) continue;  // no self-pair
          FlowChange c;
          c.pair = topo::SitePair{site, endpoint_site(target.dst)};
          c.src = ep;
          c.dst = target.dst;
          c.qos = draw_qos(rng);
          c.before_gbps = 0.0;
          c.after_gbps = base_mean * kArrivalDemandFactor *
                         rng.lognormal(0.0, 0.5);
          auto& flows = work.pairs()[c.pair];
          c.flow_index = static_cast<std::uint32_t>(flows.size());
          flows.push_back(EndpointDemand{c.src, c.dst, c.after_gbps,
                                         c.qos});
          insert_sorted(pairs, c.pair);
          ev.changes.push_back(c);
        }
        break;
      }
      case DemandEventKind::kEndpointDeparture: {
        topo::SitePair pair;
        std::uint32_t idx = 0;
        if (!draw_live_flow(rng, work, pairs, &pair, &idx)) break;
        const EndpointId ep = work.pairs().at(pair)[idx].src;
        // Zero every live flow sourced by this endpoint; its site pins
        // the pairs to scan.
        for (const topo::SitePair& p : pairs) {
          if (p.src != endpoint_site(ep)) continue;
          auto& flows = work.pairs().at(p);
          for (std::uint32_t i = 0; i < flows.size(); ++i) {
            if (flows[i].src != ep || flows[i].demand_gbps <= 0.0) {
              continue;
            }
            FlowChange c;
            c.pair = p;
            c.flow_index = i;
            c.src = flows[i].src;
            c.dst = flows[i].dst;
            c.qos = flows[i].qos;
            c.before_gbps = flows[i].demand_gbps;
            c.after_gbps = 0.0;
            flows[i].demand_gbps = 0.0;
            ev.changes.push_back(c);
          }
        }
        break;
      }
    }
    if (ev.changes.empty()) continue;  // drained target: drop the slot
    ev.id = stream.events_.size();
    stream.events_.push_back(std::move(ev));
  }
  return stream;
}

void DemandStream::apply(const DemandEvent& event, TrafficMatrix& m) {
  for (const FlowChange& c : event.changes) {
    auto& flows = m.pairs()[c.pair];
    if (c.flow_index < flows.size()) {
      flows[c.flow_index].demand_gbps = c.after_gbps;
    } else if (c.flow_index == flows.size()) {
      flows.push_back(EndpointDemand{c.src, c.dst, c.after_gbps, c.qos});
    } else {
      throw std::runtime_error(
          "DemandStream::apply: matrix diverged from the recorded "
          "timeline (append index beyond tail) — events must be applied "
          "in order against the generated-for matrix");
    }
  }
}

const DemandEvent* DemandStream::next_due(double t) noexcept {
  if (cursor_ >= events_.size() || events_[cursor_].time_s > t) {
    return nullptr;
  }
  return &events_[cursor_++];
}

void DemandStream::note_event(obs::MetricsRegistry* metrics,
                              const DemandEvent& event) {
  if (metrics == nullptr) return;
  metrics->counter("tm.churn.events").inc();
  metrics->counter(std::string("tm.churn.") + to_string(event.kind)).inc();
  metrics->counter("tm.churn.flows_changed").inc(event.changes.size());
  metrics->histogram("tm.churn.event_delta_gbps")
      .observe(event.delta_gbps());
}

std::uint64_t DemandStream::fingerprint(const TrafficMatrix& m) {
  // Commutative combine over pairs (map order is unspecified), each pair
  // hashed order-sensitively through tm::fingerprint_flows.
  std::uint64_t acc = 0;
  for (const auto& [pair, flows] : m.pairs()) {
    const PairFingerprint fp = fingerprint_flows(flows);
    std::uint64_t h = util::kFnv1aBasis;
    for (const std::uint64_t w : {std::uint64_t{pair.src},
                                  std::uint64_t{pair.dst}, fp.hash,
                                  fp.num_flows}) {
      h = util::fnv1a(h, w);
    }
    acc += h;  // wrapping add: order-insensitive
  }
  return acc;
}

}  // namespace megate::tm

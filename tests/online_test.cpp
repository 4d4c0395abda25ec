// Tests for the online intra-interval TE pipeline (ISSUE 9): the
// tm::DemandStream event timeline (deterministic replay, stable flow
// indices, divergence detection), the te::OnlineAllocator (invariants
// I1-I4, the shrink/top-up/move/shed admission ladder, drift-triggered
// re-solve recommendations, thread-safe snapshots), the patched-vs-
// re-solved differential, and the fault::run_chaos integration (churn
// changes the fingerprint deterministically; online patching survives
// faults and churn).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "megate/fault/chaos.h"
#include "megate/obs/metrics.h"
#include "megate/te/megate_solver.h"
#include "megate/te/online_allocator.h"
#include "megate/tm/demand_stream.h"
#include "test_helpers.h"

namespace megate {
namespace {

tm::ChurnOptions busy_churn(std::uint64_t seed = 7) {
  tm::ChurnOptions c;
  c.seed = seed;
  c.horizon_s = 100.0;
  c.flow_scale_events = 12;
  c.flash_crowds = 3;
  c.diurnal_steps = 2;
  c.endpoint_arrivals = 2;
  c.endpoint_departures = 2;
  return c;
}

std::vector<std::string> timeline(const tm::DemandStream& s) {
  std::vector<std::string> out;
  for (const tm::DemandEvent& e : s.events()) out.push_back(e.to_log());
  return out;
}

// --- DemandStream -----------------------------------------------------------

TEST(DemandStreamTest, SameSeedReplaysBitwiseIdentically) {
  auto s = testing::make_scenario(6, 10, 3);
  const tm::ChurnOptions c = busy_churn();
  const tm::DemandStream a = tm::DemandStream::generate(s->traffic, c);
  const tm::DemandStream b = tm::DemandStream::generate(s->traffic, c);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(timeline(a), timeline(b));

  tm::TrafficMatrix ma = s->traffic;
  tm::TrafficMatrix mb = s->traffic;
  for (const tm::DemandEvent& e : a.events()) tm::DemandStream::apply(e, ma);
  for (const tm::DemandEvent& e : b.events()) tm::DemandStream::apply(e, mb);
  EXPECT_EQ(tm::DemandStream::fingerprint(ma),
            tm::DemandStream::fingerprint(mb));
  // The timeline actually moved demand.
  EXPECT_NE(tm::DemandStream::fingerprint(ma),
            tm::DemandStream::fingerprint(s->traffic));
}

TEST(DemandStreamTest, DifferentSeedsDiverge) {
  auto s = testing::make_scenario(6, 10, 3);
  const tm::DemandStream a =
      tm::DemandStream::generate(s->traffic, busy_churn(7));
  const tm::DemandStream b =
      tm::DemandStream::generate(s->traffic, busy_churn(8));
  EXPECT_NE(timeline(a), timeline(b));
}

TEST(DemandStreamTest, FlowIndicesAreStable) {
  auto s = testing::make_scenario(6, 10, 3);
  const tm::DemandStream stream =
      tm::DemandStream::generate(s->traffic, busy_churn());
  // Per-pair flow counts never shrink: departures leave zero-demand
  // placeholders, arrivals only append.
  tm::TrafficMatrix m = s->traffic;
  std::unordered_map<topo::SitePair, std::size_t, topo::SitePairHash> sizes;
  for (const auto& [pair, flows] : m.pairs()) sizes[pair] = flows.size();
  bool saw_departure = false;
  for (const tm::DemandEvent& e : stream.events()) {
    tm::DemandStream::apply(e, m);
    for (const auto& [pair, flows] : m.pairs()) {
      EXPECT_GE(flows.size(), sizes[pair]) << e.to_log();
      sizes[pair] = flows.size();
    }
    if (e.kind == tm::DemandEventKind::kEndpointDeparture) {
      saw_departure = true;
      for (const tm::FlowChange& c : e.changes) {
        const auto& flows = m.pairs().at(c.pair);
        ASSERT_LT(c.flow_index, flows.size());
        EXPECT_EQ(flows[c.flow_index].demand_gbps, 0.0);
      }
    }
  }
  EXPECT_TRUE(saw_departure);
}

TEST(DemandStreamTest, ApplyDetectsDivergedMatrix) {
  auto s = testing::make_scenario(6, 10, 3);
  tm::ChurnOptions c = busy_churn();
  c.endpoint_arrivals = 2;
  const tm::DemandStream stream =
      tm::DemandStream::generate(s->traffic, c);
  const tm::DemandEvent* arrival = nullptr;
  for (const tm::DemandEvent& e : stream.events()) {
    if (e.kind == tm::DemandEventKind::kEndpointArrival &&
        !e.changes.empty()) {
      arrival = &e;
      break;
    }
  }
  ASSERT_NE(arrival, nullptr);
  // Sabotage the matrix: dropping the target pair's flows leaves the
  // recorded append index dangling beyond the tail.
  tm::TrafficMatrix m = s->traffic;
  auto& flows = m.pairs().at(arrival->changes.front().pair);
  ASSERT_GT(arrival->changes.front().flow_index, 0u);
  flows.clear();
  EXPECT_THROW(tm::DemandStream::apply(*arrival, m), std::runtime_error);
}

TEST(DemandStreamTest, NextDueCursorWalksTheTimeline) {
  auto s = testing::make_scenario(6, 10, 3);
  tm::DemandStream stream =
      tm::DemandStream::generate(s->traffic, busy_churn());
  ASSERT_FALSE(stream.empty());
  const double mid = stream.events().back().time_s / 2.0;
  std::size_t drained = 0;
  while (stream.next_due(mid) != nullptr) ++drained;
  EXPECT_EQ(stream.cursor(), drained);
  for (std::size_t i = 0; i < drained; ++i) {
    EXPECT_LE(stream.events()[i].time_s, mid);
  }
  std::size_t rest = 0;
  while (stream.next_due(1e18) != nullptr) ++rest;
  EXPECT_EQ(drained + rest, stream.events().size());
  EXPECT_EQ(stream.next_due(1e18), nullptr);
  stream.reset();
  EXPECT_EQ(stream.cursor(), 0u);
}

TEST(DemandStreamTest, NoteEventFeedsChurnCounters) {
  auto s = testing::make_scenario(6, 10, 3);
  const tm::DemandStream stream =
      tm::DemandStream::generate(s->traffic, busy_churn());
  obs::MetricsRegistry m;
  std::size_t flows_changed = 0;
  for (const tm::DemandEvent& e : stream.events()) {
    tm::DemandStream::note_event(&m, e);
    flows_changed += e.changes.size();
  }
  EXPECT_EQ(m.counter("tm.churn.events").value(), stream.events().size());
  EXPECT_EQ(m.counter("tm.churn.flows_changed").value(), flows_changed);
  // Null registry is a documented no-op.
  tm::DemandStream::note_event(nullptr, stream.events().front());
}

// --- OnlineAllocator --------------------------------------------------------

constexpr std::uint32_t kBudget = 4;

/// Recomputes the allocator's state from scratch and asserts I1-I4.
void audit_invariants(const testing::Scenario& s,
                      const tm::TrafficMatrix& current,
                      const te::OnlineAllocator& alloc,
                      const std::string& context) {
  const te::TeSolution sol = alloc.snapshot();
  const auto res = alloc.reservations_snapshot();
  std::vector<double> usage(s.graph.num_links(), 0.0);
  double satisfied = 0.0;
  for (const auto& [pair, rv] : res) {
    const auto sit = sol.pairs.find(pair);
    const auto mit = current.pairs().find(pair);
    const auto& tuns = s.tunnels.tunnels(pair.src, pair.dst);
    std::vector<double> per_tunnel(tuns.size(), 0.0);
    for (std::size_t i = 0; i < rv.size(); ++i) {
      if (rv[i] <= 0.0) continue;
      satisfied += rv[i];
      // I3: 0 <= reservation <= current demand.
      ASSERT_TRUE(mit != current.pairs().end() && i < mit->second.size())
          << context;
      EXPECT_LE(rv[i], mit->second[i].demand_gbps + 1e-6) << context;
      ASSERT_TRUE(sit != sol.pairs.end() &&
                  i < sit->second.flow_tunnel.size())
          << context;
      const std::int32_t t = sit->second.flow_tunnel[i];
      ASSERT_GE(t, 0) << context << ": reservation without a tunnel";
      const topo::Tunnel& tunnel = tuns[static_cast<std::size_t>(t)];
      // I2: never on a dead or over-budget tunnel.
      EXPECT_TRUE(tunnel.alive(s.graph)) << context;
      EXPECT_LE(tunnel.hops(), kBudget) << context;
      per_tunnel[static_cast<std::size_t>(t)] += rv[i];
      for (topo::EdgeId e : tunnel.links) usage[e] += rv[i];
    }
    // I4: tunnel_alloc is the per-tunnel sum of its flows' reservations.
    if (sit != sol.pairs.end()) {
      for (std::size_t t = 0;
           t < per_tunnel.size() && t < sit->second.tunnel_alloc.size();
           ++t) {
        EXPECT_NEAR(sit->second.tunnel_alloc[t], per_tunnel[t], 1e-6)
            << context;
      }
    }
  }
  // I1: no link over capacity.
  for (topo::EdgeId e = 0; e < s.graph.num_links(); ++e) {
    EXPECT_LE(usage[e], s.graph.link(e).capacity_gbps + 1e-6)
        << context << " link " << e;
  }
  // I4: satisfied_gbps == sum of reservations.
  EXPECT_NEAR(sol.satisfied_gbps, satisfied, 1e-6) << context;
}

struct OnlineFixture {
  std::unique_ptr<testing::Scenario> s;
  te::TeProblem problem;
  te::TeSolution sol;

  explicit OnlineFixture(double load = 0.15, std::uint64_t seed = 42) {
    s = testing::make_scenario(8, 14, 3, load, seed);
    testing::rebuild_tunnels_under_budget(*s, kBudget);
    problem = s->problem();
    sol = te::MegaTeSolver().solve(problem, {}).solution;
  }
};

TEST(OnlineAllocatorTest, InvariantsHoldThroughBusyChurn) {
  OnlineFixture f(0.4);
  te::OnlineAllocator alloc;
  alloc.rebase(f.problem, f.sol);
  audit_invariants(*f.s, f.s->traffic, alloc, "after rebase");

  tm::TrafficMatrix m = f.s->traffic;
  const tm::DemandStream stream =
      tm::DemandStream::generate(f.s->traffic, busy_churn());
  for (const tm::DemandEvent& e : stream.events()) {
    tm::DemandStream::apply(e, m);
    alloc.apply(e);
    audit_invariants(*f.s, m, alloc, e.to_log());
  }
}

/// Bit digest of the allocator's outcome through busy churn, recorded at
/// the commit before the whole-flow move stopped being optional. The
/// replay moves flows, so dropping that rung of the ladder moves it.
constexpr std::uint64_t kPinnedBusyChurn = 0x6ea0c4276d6cd077ULL;

TEST(OnlineAllocatorPinned, BusyChurnMatchesParent) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  std::size_t moved = 0;
  for (const double load : {0.4, 0.8}) {
    OnlineFixture f(load);
    te::OnlineAllocator alloc;
    alloc.rebase(f.problem, f.sol);
    const tm::DemandStream stream =
        tm::DemandStream::generate(f.s->traffic, busy_churn());
    for (const tm::DemandEvent& e : stream.events()) {
      const te::PatchResult r = alloc.apply(e);
      moved += r.flows_moved;
      h = (h ^ std::bit_cast<std::uint64_t>(r.admitted_gbps)) *
          0x100000001B3ULL;
      h = (h ^ std::bit_cast<std::uint64_t>(r.shed_gbps)) * 0x100000001B3ULL;
    }
    h = (h ^ std::bit_cast<std::uint64_t>(alloc.snapshot().satisfied_gbps)) *
        0x100000001B3ULL;
  }
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(h, kPinnedBusyChurn) << std::hex << "got 0x" << h;
}

/// A hand-built single-flow event (the unit-level admission probes).
tm::DemandEvent flow_event(const topo::SitePair& pair, std::uint32_t index,
                           const tm::EndpointDemand& f, double after) {
  tm::DemandEvent e;
  e.kind = after > f.demand_gbps ? tm::DemandEventKind::kFlowScaleUp
                                 : tm::DemandEventKind::kFlowScaleDown;
  tm::FlowChange c;
  c.pair = pair;
  c.flow_index = index;
  c.src = f.src;
  c.dst = f.dst;
  c.qos = f.qos;
  c.before_gbps = f.demand_gbps;
  c.after_gbps = after;
  e.changes.push_back(c);
  return e;
}

/// First (pair, index, flow) with an assigned tunnel.
std::tuple<topo::SitePair, std::uint32_t, tm::EndpointDemand>
first_assigned(const OnlineFixture& f) {
  for (const auto& [pair, flows] : f.s->traffic.pairs()) {
    auto it = f.sol.pairs.find(pair);
    if (it == f.sol.pairs.end()) continue;
    for (std::size_t i = 0;
         i < flows.size() && i < it->second.flow_tunnel.size(); ++i) {
      if (it->second.flow_tunnel[i] >= 0 && flows[i].demand_gbps > 0.0) {
        return {pair, static_cast<std::uint32_t>(i), flows[i]};
      }
    }
  }
  ADD_FAILURE() << "no assigned flow in the fixture solution";
  return {};
}

TEST(OnlineAllocatorTest, ShrinkReleasesAndDepartureUnassigns) {
  OnlineFixture f;
  te::OnlineAllocator alloc;
  alloc.rebase(f.problem, f.sol);
  auto [pair, index, flow] = first_assigned(f);

  const double half = flow.demand_gbps / 2.0;
  const te::PatchResult shrink =
      alloc.apply(flow_event(pair, index, flow, half));
  EXPECT_NEAR(shrink.released_gbps, flow.demand_gbps - half, 1e-9);
  EXPECT_EQ(shrink.flows_patched, 1u);

  tm::EndpointDemand at_half = flow;
  at_half.demand_gbps = half;
  const te::PatchResult gone =
      alloc.apply(flow_event(pair, index, at_half, 0.0));
  EXPECT_NEAR(gone.released_gbps, half, 1e-9);
  const te::TeSolution snap = alloc.snapshot();
  EXPECT_EQ(snap.pairs.at(pair).flow_tunnel[index], -1);
  EXPECT_EQ(alloc.reservations_snapshot().at(pair)[index], 0.0);
}

TEST(OnlineAllocatorTest, GrowthTopsUpOnResidualCapacity) {
  OnlineFixture f(0.05);  // light load: plenty of residual
  te::OnlineAllocator alloc;
  alloc.rebase(f.problem, f.sol);
  auto [pair, index, flow] = first_assigned(f);

  const double target = flow.demand_gbps * 1.5;
  const te::PatchResult grow =
      alloc.apply(flow_event(pair, index, flow, target));
  EXPECT_NEAR(grow.admitted_gbps, target - flow.demand_gbps, 1e-9);
  EXPECT_EQ(grow.flows_shed, 0u);
  EXPECT_NEAR(alloc.reservations_snapshot().at(pair)[index], target, 1e-9);
}

TEST(OnlineAllocatorTest, ImpossibleGrowthShedsLoudly) {
  OnlineFixture f;
  obs::MetricsRegistry metrics;
  te::OnlineOptions oopt;
  oopt.metrics = &metrics;
  te::OnlineAllocator alloc(oopt);
  alloc.rebase(f.problem, f.sol);
  auto [pair, index, flow] = first_assigned(f);

  // No WAN carries an exabit flow: most of it must be shed, loudly.
  const te::PatchResult pr =
      alloc.apply(flow_event(pair, index, flow, 1e9));
  EXPECT_GT(pr.shed_gbps, 0.0);
  EXPECT_GE(pr.flows_shed, 1u);
  EXPECT_EQ(metrics.counter("te.online.flows_shed").value(), 1u);
  // What was admitted is still invariant-clean (partial admission).
  tm::TrafficMatrix m = f.s->traffic;
  m.pairs().at(pair)[index].demand_gbps = 1e9;
  audit_invariants(*f.s, m, alloc, "after shed");
}

TEST(OnlineAllocatorTest, DriftCrossingRecommendsResolve) {
  OnlineFixture f;
  te::OnlineOptions oopt;
  oopt.resolve_drift_fraction = 0.05;
  te::OnlineAllocator alloc(oopt);
  alloc.rebase(f.problem, f.sol);

  tm::ChurnOptions c = busy_churn();
  c.scale_up_min = 2.5;
  c.scale_up_max = 4.0;
  const tm::DemandStream stream =
      tm::DemandStream::generate(f.s->traffic, c);
  double last_drift = 0.0;
  bool recommended = false;
  for (const tm::DemandEvent& e : stream.events()) {
    const te::PatchResult pr = alloc.apply(e);
    EXPECT_GE(pr.drift_fraction, last_drift);  // cumulative, monotone
    last_drift = pr.drift_fraction;
    recommended = recommended || pr.resolve_recommended;
  }
  EXPECT_TRUE(recommended);
  EXPECT_GT(alloc.drift_fraction(), 0.05);
}

TEST(OnlineAllocatorTest, ApplyBeforeRebaseThrows) {
  te::OnlineAllocator alloc;
  EXPECT_THROW(alloc.apply(tm::DemandEvent{}), std::logic_error);
  EXPECT_FALSE(alloc.has_base());
}

TEST(OnlineAllocatorTest, FractionalOnlySolutionRejected) {
  OnlineFixture f;
  te::TeSolution fractional = f.sol;
  // Strip the per-flow assignments from a pair that has flows: a
  // fractional (LP-only) allocation is not patchable.
  bool stripped = false;
  for (auto& [pair, alloc] : fractional.pairs) {
    auto it = f.s->traffic.pairs().find(pair);
    if (it == f.s->traffic.pairs().end() || it->second.empty()) continue;
    alloc.flow_tunnel.clear();
    stripped = true;
    break;
  }
  ASSERT_TRUE(stripped);
  te::OnlineAllocator alloc;
  EXPECT_THROW(alloc.rebase(f.problem, fractional), std::invalid_argument);
}

// --- patched vs re-solved differential --------------------------------------

TEST(OnlineDifferential, PatchedStaysWithinBoundedRegret) {
  OnlineFixture f(0.3, 17);
  te::OnlineAllocator alloc;
  alloc.rebase(f.problem, f.sol);

  tm::TrafficMatrix m = f.s->traffic;
  const tm::DemandStream stream =
      tm::DemandStream::generate(f.s->traffic, busy_churn(11));
  for (const tm::DemandEvent& e : stream.events()) {
    tm::DemandStream::apply(e, m);
    alloc.apply(e);
  }
  audit_invariants(*f.s, m, alloc, "final");

  // Stale boundary-only carriage: min(solve-time reservation, demand).
  double stale = 0.0;
  for (const auto& [pair, flows] : m.pairs()) {
    auto bit = f.s->traffic.pairs().find(pair);
    auto sit = f.sol.pairs.find(pair);
    if (bit == f.s->traffic.pairs().end() || sit == f.sol.pairs.end()) {
      continue;
    }
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (i >= bit->second.size() ||
          i >= sit->second.flow_tunnel.size() ||
          sit->second.flow_tunnel[i] < 0) {
        continue;
      }
      stale += std::min(bit->second[i].demand_gbps, flows[i].demand_gbps);
    }
  }
  const double patched = alloc.snapshot().satisfied_gbps;
  te::TeProblem final_problem = f.problem;
  final_problem.traffic = &m;
  const double resolved =
      te::MegaTeSolver().solve(final_problem, {}).solution.satisfied_gbps;

  // Fault-free, the patcher never does worse than going stale and stays
  // within bounded regret of a full re-solve (it can exceed it: partial
  // admissions are fractional where stage 2 is indivisible).
  EXPECT_GE(patched, stale - 1e-6);
  EXPECT_GE(patched, 0.8 * resolved);
}

// --- snapshot concurrency (TSan target) -------------------------------------

TEST(OnlineConcurrency, SnapshotsRaceApplyCleanly) {
  OnlineFixture f(0.4);
  te::OnlineAllocator alloc;
  alloc.rebase(f.problem, f.sol);
  const tm::DemandStream stream =
      tm::DemandStream::generate(f.s->traffic, busy_churn());

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reads{0};
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const te::TeSolution snap = alloc.snapshot();
      const auto res = alloc.reservations_snapshot();
      EXPECT_GE(snap.satisfied_gbps, -1e-9);
      reads.fetch_add(1 + res.size(), std::memory_order_relaxed);
      (void)alloc.drift_fraction();
    }
  });
  // Keep patching until the publisher has observably raced us at least
  // once (the event replay is fast enough to finish before the thread
  // is even scheduled).
  int round = 0;
  while (round < 20 || reads.load(std::memory_order_relaxed) == 0) {
    for (const tm::DemandEvent& e : stream.events()) alloc.apply(e);
    ++round;
  }
  stop.store(true, std::memory_order_relaxed);
  publisher.join();
  EXPECT_GT(reads.load(), 0u);
}

// --- chaos integration ------------------------------------------------------

fault::ChaosOptions churny_chaos() {
  fault::ChaosOptions o;
  o.sites = 8;
  o.duplex_links = 12;
  o.endpoints_per_site = 2;
  o.intervals = 6;
  o.interval_s = 15.0;
  o.plan.seed = 21;
  o.plan.horizon_s = 0.0;
  o.plan.quiet_tail_s = 45.0;
  o.plan.shard_crashes = 0;
  o.plan.link_failures = 0;
  o.plan.pull_drop_windows = 0;
  o.plan.stale_windows = 0;
  o.churn.seed = 5;
  o.churn.flow_scale_events = 8;
  o.churn.flash_crowds = 2;
  o.churn.endpoint_arrivals = 1;
  o.churn.endpoint_departures = 1;
  return o;
}

TEST(ChaosChurnTest, ChurnedRunIsDeterministicAndLogged) {
  const fault::ChaosReport a = fault::run_chaos(churny_chaos());
  const fault::ChaosReport b = fault::run_chaos(churny_chaos());
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.churn_log, b.churn_log);
  EXPECT_FALSE(a.churn_log.empty());
  std::size_t events = 0;
  for (const auto& s : a.intervals) events += s.churn_events;
  EXPECT_EQ(events, a.churn_log.size());
  EXPECT_TRUE(a.ok()) << (a.violations.empty() ? "not converged"
                                               : a.violations.front());
}

TEST(ChaosChurnTest, ChurnPerturbsTheFingerprint) {
  fault::ChaosOptions quiet = churny_chaos();
  quiet.churn = tm::ChurnOptions{};  // feature off
  const fault::ChaosReport without = fault::run_chaos(quiet);
  const fault::ChaosReport with = fault::run_chaos(churny_chaos());
  EXPECT_TRUE(without.churn_log.empty());
  EXPECT_NE(without.fingerprint, with.fingerprint);
}

TEST(ChaosChurnTest, OnlinePatchingSurvivesFaultsAndChurn) {
  fault::ChaosOptions o = churny_chaos();
  o.plan.shard_crashes = 1;
  o.plan.link_failures = 1;
  o.online_patch = true;
  const fault::ChaosReport report = fault::run_chaos(o);
  EXPECT_TRUE(report.violations.empty())
      << report.violations.front();
  std::size_t patches = 0;
  for (const auto& s : report.intervals) patches += s.online_patches;
  EXPECT_GT(patches, 0u);
  // Same options replay to the same fingerprint even with faults AND
  // churn striking the same intervals.
  const fault::ChaosReport again = fault::run_chaos(o);
  EXPECT_EQ(report.fingerprint, again.fingerprint);
}

}  // namespace
}  // namespace megate

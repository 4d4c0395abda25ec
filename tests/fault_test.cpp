// Tests for the fault-injection subsystem: FaultPlan schedules, the
// KvStore shard redo log, agent retry/fall-back behaviour, the
// FaultInjector event machinery and the end-to-end chaos loop
// (determinism + the convergence invariants).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "megate/ctrl/agent.h"
#include "megate/ctrl/controller.h"
#include "megate/ctrl/kvstore.h"
#include "megate/ctrl/transport.h"
#include "megate/dataplane/host_stack.h"
#include "megate/fault/chaos.h"
#include "megate/fault/fault_plan.h"
#include "megate/fault/injector.h"
#include "megate/sim/period_sim.h"
#include "megate/topo/generators.h"
#include "test_helpers.h"

namespace megate {
namespace {

// --- FaultPlan --------------------------------------------------------------

fault::FaultPlanOptions small_plan_options(std::uint64_t seed) {
  fault::FaultPlanOptions o;
  o.seed = seed;
  o.horizon_s = 300.0;
  o.quiet_tail_s = 60.0;
  o.shard_crashes = 2;
  o.link_failures = 2;
  o.pull_drop_windows = 2;
  o.stale_windows = 2;
  return o;
}

TEST(FaultPlanTest, SameSeedSamePlan) {
  const auto opt = small_plan_options(7);
  const auto a = fault::FaultPlan::generate(opt, 4, 16);
  const auto b = fault::FaultPlan::generate(opt, 4, 16);
  EXPECT_EQ(a.to_log(), b.to_log());
  EXPECT_EQ(a.events().size(), b.events().size());
  EXPECT_EQ(a.last_fault_end_s(), b.last_fault_end_s());
}

TEST(FaultPlanTest, DifferentSeedDifferentPlan) {
  const auto a = fault::FaultPlan::generate(small_plan_options(7), 4, 16);
  const auto b = fault::FaultPlan::generate(small_plan_options(8), 4, 16);
  EXPECT_NE(a.to_log(), b.to_log());
}

TEST(FaultPlanTest, EventsSortedAndInsideQuietTailWindow) {
  const auto opt = small_plan_options(3);
  const auto plan = fault::FaultPlan::generate(opt, 4, 16);
  ASSERT_FALSE(plan.empty());
  double prev = -1.0;
  for (const auto& e : plan.events()) {
    EXPECT_GE(e.start_s, prev);
    prev = e.start_s;
    EXPECT_GE(e.start_s, 0.0);
    EXPECT_LE(e.end_s(), opt.horizon_s - opt.quiet_tail_s + 1e-9);
    EXPECT_LE(e.end_s(), plan.last_fault_end_s() + 1e-9);
  }
}

TEST(FaultPlanTest, EmptyTargetSpacesAreSkipped) {
  auto opt = small_plan_options(5);
  const auto plan = fault::FaultPlan::generate(opt, 0, 0);
  for (const auto& e : plan.events()) {
    EXPECT_NE(e.kind, fault::FaultKind::kShardCrash);
    EXPECT_NE(e.kind, fault::FaultKind::kLinkFailure);
  }
}

// --- KvStore shard availability --------------------------------------------

TEST(KvStoreFaultTest, DownShardRefusesReadsAndBuffersWrites) {
  ctrl::KvStore kv(4);
  kv.publish_delta({.upserts = {{"alpha", "1"}}});
  const std::size_t shard = kv.shard_index("alpha");
  ASSERT_TRUE(kv.shard_up(shard));

  kv.set_shard_up(shard, false);
  EXPECT_FALSE(kv.shard_up(shard));
  const ctrl::GetResult down = kv.try_get("alpha");
  EXPECT_EQ(down.status, ctrl::GetStatus::kUnavailable);
  EXPECT_TRUE(down.value.empty());
  EXPECT_GE(kv.unavailable_count(), 1u);

  // Writes while down are buffered; the redo log replays in order.
  kv.publish_delta({.upserts = {{"alpha", "2"}}});
  const ctrl::Version last = kv.publish_delta({.upserts = {{"alpha", "3"}}});
  kv.set_shard_up(shard, true);
  const ctrl::GetResult up = kv.try_get("alpha");
  ASSERT_EQ(up.status, ctrl::GetStatus::kOk);
  EXPECT_EQ(up.value, "3");
  EXPECT_EQ(up.version, last);  // tagged with the last replayed publish
}

TEST(KvStoreFaultTest, PublishAdvancesVersionWhileShardDown) {
  ctrl::KvStore kv(2);
  kv.set_shard_up(0, false);
  kv.set_shard_up(1, false);
  const ctrl::Version before = kv.version();
  kv.publish_delta({.upserts = {{"k1", "v1"}, {"k2", "v2"}}});
  EXPECT_EQ(kv.version(), before + 1);  // readers learn an update exists
  kv.set_shard_up(0, true);
  kv.set_shard_up(1, true);
  const ctrl::GetResult r1 = kv.try_get("k1");
  EXPECT_EQ(r1.status, ctrl::GetStatus::kOk);
  EXPECT_EQ(r1.value, "v1");
  const ctrl::GetResult r2 = kv.try_get("k2");
  EXPECT_EQ(r2.status, ctrl::GetStatus::kOk);
  EXPECT_EQ(r2.value, "v2");
  // Replayed publish deltas carry their publish version onto the shard.
  EXPECT_GE(r1.version, before + 1);
}

TEST(KvStoreFaultTest, MissVsUnavailableAndEraseOnDownShard) {
  ctrl::KvStore kv(1);
  EXPECT_EQ(kv.try_get("absent").status, ctrl::GetStatus::kMiss);
  kv.publish_delta({.upserts = {{"key", "v"}}});
  kv.set_shard_up(0, false);
  // A delta erase on a down shard is buffered: the key is unavailable,
  // not missing, until recovery replays the erase.
  kv.publish_delta({.erases = {"key"}});
  EXPECT_EQ(kv.try_get("key").status, ctrl::GetStatus::kUnavailable);
  EXPECT_EQ(kv.size(), 1u);
  kv.set_shard_up(0, true);
  EXPECT_EQ(kv.try_get("key").status, ctrl::GetStatus::kMiss);
  EXPECT_EQ(kv.size(), 0u);
}

TEST(KvStoreFaultTest, ShardIndexOutOfRangeThrows) {
  ctrl::KvStore kv(2);
  EXPECT_THROW(kv.set_shard_up(2, false), std::out_of_range);
}

// --- EndpointAgent retry / fall-back ---------------------------------------

/// Publishes one wildcard route for `instance` (a one-key publish_delta).
void seed_route(ctrl::KvTransport& db, std::uint64_t instance,
                std::vector<std::uint32_t> hops) {
  db.put(ctrl::path_key(instance),
         ctrl::encode_routes({{dataplane::kAnyDstSite, std::move(hops)}}));
}

/// Hook that drops every pull while `drop` is set.
struct DropSwitch final : ctrl::FaultHooks {
  bool drop = false;
  bool drop_pull(std::uint64_t) override { return drop; }
};

TEST(AgentFaultTest, KeepsLastGoodRoutesAndRetriesOnDrop) {
  ctrl::KvStore kv(2);
  ctrl::InProcessTransport db(&kv);
  DropSwitch hooks;
  ctrl::ControlCounters counters;

  ctrl::AgentOptions opt;
  opt.poll_interval_s = 10.0;
  opt.max_pull_retries = 3;
  opt.retry_backoff_s = 0.5;
  opt.fault_hooks = &hooks;
  opt.counters = &counters;
  ctrl::EndpointAgent agent(17, &db, nullptr, opt);

  // Healthy pull of v1.
  seed_route(db, 17, {1, 2, 3});
  for (double t = 0.0; t <= 20.0; t += 1.0) agent.tick(t);
  ASSERT_EQ(agent.applied_version(), kv.version());
  const auto v1_routes = agent.routes();
  ASSERT_FALSE(v1_routes.empty());

  // v2 published but every pull drops: last-good routes survive, the agent
  // burns its retry budget and falls back to the poll cadence.
  hooks.drop = true;
  seed_route(db, 17, {4, 5});
  for (double t = 20.0; t <= 60.0; t += 1.0) agent.tick(t);
  EXPECT_EQ(agent.routes(), v1_routes);
  EXPECT_LT(agent.applied_version(), kv.version());
  EXPECT_GT(counters.pull_drops, 0u);
  EXPECT_GT(counters.pull_retries, 0u);
  EXPECT_GT(counters.fallbacks_last_good, 0u);

  // Faults lift: the agent converges to v2 on the next poll.
  hooks.drop = false;
  for (double t = 60.0; t <= 80.0; t += 1.0) agent.tick(t);
  EXPECT_EQ(agent.applied_version(), kv.version());
  EXPECT_EQ(agent.failed_pulls(), 0u);
  ASSERT_FALSE(agent.routes().empty());
  EXPECT_EQ(agent.routes()[0].hops, (std::vector<std::uint32_t>{4, 5}));
}

TEST(AgentFaultTest, ShardOutageFallsBackThenConverges) {
  ctrl::KvStore kv(1);
  ctrl::InProcessTransport db(&kv);
  ctrl::ControlCounters counters;
  ctrl::AgentOptions opt;
  opt.poll_interval_s = 5.0;
  opt.retry_backoff_s = 0.5;
  opt.counters = &counters;
  ctrl::EndpointAgent agent(3, &db, nullptr, opt);

  seed_route(db, 3, {9});
  kv.set_shard_up(0, false);
  for (double t = 0.0; t <= 30.0; t += 1.0) agent.tick(t);
  EXPECT_NE(agent.applied_version(), kv.version());
  EXPECT_GT(counters.shard_unavailable, 0u);
  EXPECT_TRUE(agent.routes().empty());  // never had a good table

  kv.set_shard_up(0, true);
  for (double t = 30.0; t <= 45.0; t += 1.0) agent.tick(t);
  EXPECT_EQ(agent.applied_version(), kv.version());
  EXPECT_FALSE(agent.routes().empty());
}

/// Hook that serves version queries `depth` versions behind.
struct StaleHook final : ctrl::FaultHooks {
  ctrl::Version depth = 0;
  ctrl::Version observed_version(std::uint64_t,
                                 ctrl::Version actual) override {
    return actual >= depth ? actual - depth : 0;
  }
};

TEST(AgentFaultTest, StaleVersionWindowDelaysApply) {
  ctrl::KvStore kv(2);
  ctrl::InProcessTransport db(&kv);
  StaleHook hooks;
  ctrl::AgentOptions opt;
  opt.poll_interval_s = 5.0;
  opt.fault_hooks = &hooks;
  ctrl::EndpointAgent agent(8, &db, nullptr, opt);

  seed_route(db, 8, {1});
  hooks.depth = 1;  // agent sees v0 while the store is at v1
  for (double t = 0.0; t <= 20.0; t += 1.0) agent.tick(t);
  EXPECT_EQ(agent.applied_version(), 0u);
  hooks.depth = 0;
  for (double t = 20.0; t <= 30.0; t += 1.0) agent.tick(t);
  EXPECT_EQ(agent.applied_version(), kv.version());
}

// --- FaultInjector ----------------------------------------------------------

TEST(FaultInjectorTest, DeterministicEventLogAndShardLifecycle) {
  auto opt = small_plan_options(11);
  const auto run_once = [&](std::vector<std::string>* log) {
    auto s = testing::make_scenario(8, 12, 2);
    ctrl::KvStore kv(4);
    ctrl::InProcessTransport db(&kv);
    const auto plan =
        fault::FaultPlan::generate(opt, 4, s->graph.num_links() / 2);
    fault::FaultInjector::Bindings bind;
    bind.set_shard_up = [&](std::size_t shard, bool up) {
      db.set_shard_up(shard, up);
    };
    bind.graph = &s->graph;
    fault::FaultInjector injector(plan, bind);
    bool saw_shard_down = false;
    for (double t = 0.0; t <= opt.horizon_s; t += 1.0) {
      injector.advance_to(t);
      for (std::size_t i = 0; i < kv.num_shards(); ++i) {
        saw_shard_down = saw_shard_down || !kv.shard_up(i);
      }
    }
    // Everything recovered by the horizon.
    for (std::size_t i = 0; i < kv.num_shards(); ++i) {
      EXPECT_TRUE(kv.shard_up(i));
    }
    for (topo::EdgeId e = 0; e < s->graph.num_links(); ++e) {
      EXPECT_TRUE(s->graph.link(e).up);
    }
    EXPECT_FALSE(injector.faults_active());
    *log = injector.event_log();
    return saw_shard_down;
  };
  std::vector<std::string> log_a;
  std::vector<std::string> log_b;
  const bool shard_down_a = run_once(&log_a);
  run_once(&log_b);
  EXPECT_TRUE(shard_down_a);
  ASSERT_FALSE(log_a.empty());
  EXPECT_EQ(log_a, log_b);
}

TEST(FaultInjectorTest, LinkFailuresNeverPartitionTheGraph) {
  auto opt = small_plan_options(13);
  opt.link_failures = 4;
  auto s = testing::make_scenario(8, 10, 2);
  const auto plan =
      fault::FaultPlan::generate(opt, 0, s->graph.num_links() / 2);
  fault::FaultInjector::Bindings bind;
  bind.graph = &s->graph;
  fault::FaultInjector injector(plan, bind);
  for (double t = 0.0; t <= opt.horizon_s; t += 1.0) {
    injector.advance_to(t);
    EXPECT_TRUE(s->graph.is_connected()) << "partitioned at t=" << t;
  }
}

TEST(FaultInjectorTest, LinkFailuresStrikeInsideIslandsOfAPartitionedGraph) {
  // Two disjoint triangles: the graph is partitioned from the start, but
  // each triangle survives one lost link.
  topo::Graph g;
  for (int i = 0; i < 6; ++i) g.add_node("n" + std::to_string(i));
  for (const topo::NodeId base : {0u, 3u}) {
    g.add_duplex_link(base, base + 1, 10.0, 1.0);
    g.add_duplex_link(base + 1, base + 2, 10.0, 1.0);
    g.add_duplex_link(base + 2, base, 10.0, 1.0);
  }
  ASSERT_FALSE(g.is_connected());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto opt = small_plan_options(seed);
    opt.shard_crashes = 0;
    opt.pull_drop_windows = 0;
    opt.stale_windows = 0;
    opt.link_failures = 2;
    const auto plan = fault::FaultPlan::generate(opt, 0, 6);
    fault::FaultInjector::Bindings bind;
    bind.graph = &g;
    fault::FaultInjector injector(plan, bind);
    std::size_t most_down = 0;
    for (double t = 0.0; t <= opt.horizon_s; t += 1.0) {
      injector.advance_to(t);
      std::size_t down = 0;
      for (topo::EdgeId e = 0; e < g.num_links(); ++e) {
        if (!g.link(e).up) ++down;
      }
      most_down = std::max(most_down, down);
    }
    std::size_t activated = 0;
    for (const std::string& line : injector.event_log()) {
      EXPECT_EQ(line.find("skipped"), std::string::npos)
          << "seed " << seed << ": " << line;
      if (line.find("activated link-failure") != std::string::npos) {
        ++activated;
      }
    }
    EXPECT_EQ(activated, 2u) << "seed " << seed;
    EXPECT_GE(most_down, 2u) << "seed " << seed;  // both halves of a link
    for (topo::EdgeId e = 0; e < g.num_links(); ++e) {
      EXPECT_TRUE(g.link(e).up) << "seed " << seed;
    }
  }
}

// --- chaos loop -------------------------------------------------------------

fault::ChaosOptions small_chaos_options() {
  fault::ChaosOptions opt;
  opt.sites = 8;
  opt.duplex_links = 12;
  opt.endpoints_per_site = 2;
  opt.intervals = 8;
  opt.interval_s = 15.0;
  opt.poll_interval_s = 4.0;
  opt.plan.seed = 21;
  opt.plan.horizon_s = 0.0;  // auto-size to intervals * interval_s
  opt.plan.quiet_tail_s = 45.0;
  opt.plan.shard_crashes = 2;
  opt.plan.link_failures = 1;
  opt.plan.pull_drop_windows = 1;
  opt.plan.stale_windows = 1;
  return opt;
}

TEST(ChaosTest, SameSeedBitIdenticalReport) {
  const auto opt = small_chaos_options();
  const auto a = fault::run_chaos(opt);
  const auto b = fault::run_chaos(opt);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.event_log, b.event_log);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.final_version, b.final_version);
}

TEST(ChaosTest, DifferentPlanSeedDifferentFingerprint) {
  auto opt = small_chaos_options();
  const auto a = fault::run_chaos(opt);
  opt.plan.seed = 22;
  const auto b = fault::run_chaos(opt);
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

TEST(ChaosTest, FaultFreeRunIsHealthy) {
  auto opt = small_chaos_options();
  opt.intervals = 4;
  opt.plan.shard_crashes = 0;
  opt.plan.link_failures = 0;
  opt.plan.pull_drop_windows = 0;
  opt.plan.stale_windows = 0;
  const auto report = fault::run_chaos(opt);
  EXPECT_TRUE(report.event_log.empty());
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? "not converged"
                                   : report.violations.front());
  EXPECT_GT(report.final_version, 0u);
  for (const auto& s : report.intervals) {
    EXPECT_GT(s.satisfied_ratio, 0.5);
    // Fault-free and converged: installed routes carry what the solver
    // assigned (interval 0 ramps up from empty tables).
    if (s.interval > 0) {
      EXPECT_GT(s.routed_demand_ratio, s.satisfied_ratio - 0.02);
    }
    EXPECT_LE(s.installed_max_utilization, 1.0 + 1e-6);
  }
}

// The ISSUE acceptance criterion: a 50-interval chaos run with shard
// crashes and link failures ends with zero violations and every agent on
// the latest TE-db version within K intervals of the last fault.
TEST(ChaosTest, FiftyIntervalAcceptanceRun) {
  fault::ChaosOptions opt;
  opt.sites = 8;
  opt.duplex_links = 12;
  opt.endpoints_per_site = 2;
  opt.intervals = 50;
  opt.interval_s = 10.0;
  opt.poll_interval_s = 3.0;
  opt.convergence_intervals = 3;
  opt.plan.seed = 4;
  opt.plan.horizon_s = 0.0;
  opt.plan.quiet_tail_s = 60.0;
  opt.plan.shard_crashes = 3;
  opt.plan.link_failures = 3;
  opt.plan.pull_drop_windows = 2;
  opt.plan.stale_windows = 2;
  const auto report = fault::run_chaos(opt);

  ASSERT_FALSE(report.event_log.empty());
  for (const auto& v : report.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(report.all_converged);
  EXPECT_TRUE(report.converged_within_k);
  EXPECT_TRUE(report.ok());
  // The faults actually bit: the control plane observed them and reacted.
  EXPECT_GT(report.counters.shard_unavailable + report.counters.pull_drops +
                report.counters.stale_version_reads,
            0u);
  EXPECT_GT(report.counters.fallbacks_last_good, 0u);
  EXPECT_GT(report.counters.publishes, 50u);  // mid-interval re-solves too
}

// --- pinned driver output ---------------------------------------------------

// Fingerprints recorded at the commit before the chaos loop lost its
// incremental-solve switch. The loop solves cold; any change to its plans,
// publishes or agent state moves these.
constexpr std::uint64_t kPinnedChaosFaults = 0xa3fe91e567a3ae4dULL;
constexpr std::uint64_t kPinnedChaosChurn = 0xffa825b4b0b933ddULL;

TEST(ChaosPinned, FingerprintMatchesParent) {
  // Shard crashes, a link failure, pull drops and stale windows.
  const fault::ChaosReport faults = fault::run_chaos(small_chaos_options());
  EXPECT_TRUE(faults.ok());
  EXPECT_EQ(faults.fingerprint, kPinnedChaosFaults)
      << std::hex << "got 0x" << faults.fingerprint;

  // Mid-interval churn patched by the online allocator, under a shard
  // crash and a link failure.
  fault::ChaosOptions o = small_chaos_options();
  o.intervals = 6;
  o.poll_interval_s = 5.0;
  o.plan.shard_crashes = 1;
  o.plan.pull_drop_windows = 0;
  o.plan.stale_windows = 0;
  o.churn.seed = 5;
  o.churn.flow_scale_events = 8;
  o.churn.flash_crowds = 2;
  o.churn.endpoint_arrivals = 1;
  o.churn.endpoint_departures = 1;
  o.online_patch = true;
  const fault::ChaosReport churned = fault::run_chaos(o);
  EXPECT_FALSE(churned.churn_log.empty());
  EXPECT_TRUE(churned.violations.empty());
  EXPECT_EQ(churned.fingerprint, kPinnedChaosChurn)
      << std::hex << "got 0x" << churned.fingerprint;
}

// --- period_sim -----------------------------------------------------------

/// Bit digest of the per-period carriage below, recorded at the commit
/// before the period simulation was cut back to the knowledge-model
/// comparison. It equals the earlier pin of the same run with a period-2
/// link fault: at this load one lost link never changed the carriage.
constexpr std::uint64_t kPinnedPeriodCarriage = 0x111fe8cf52329db0ULL;

TEST(PeriodSimPinned, CarriageMatchesParent) {
  auto s = testing::make_scenario(8, 12, 3, 0.2, 31);
  sim::PeriodSimOptions opt;
  opt.periods = 6;
  opt.seed = 3;
  const auto out = sim::run_period_simulation(
      s->graph, s->tunnels, s->traffic, sim::DemandKnowledge::kStale, opt);
  ASSERT_EQ(out.size(), opt.periods);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const sim::PeriodOutcome& p : out) {
    h = (h ^ std::bit_cast<std::uint64_t>(p.carried_gbps)) * 0x100000001B3ULL;
  }
  EXPECT_EQ(h, kPinnedPeriodCarriage) << std::hex << "got 0x" << h;
}

// --- pinned fault plan -----------------------------------------------------

/// FNV digest of a plan's log, recorded at the commit before the per-kind
/// duration ranges and magnitudes became constants. The plan has every
/// kind, so each range and magnitude shows in it. Recorded again when the
/// connection-drop kind was deleted: that kind was sampled last on its
/// own stream, so the log is the earlier one minus its one line.
constexpr std::uint64_t kPinnedPlanLog = 0x4c909cb82cfbba52ULL;

TEST(FaultPlanPinned, LogMatchesParent) {
  const std::string log =
      fault::FaultPlan::generate(small_plan_options(7), 4, 16).to_log();
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : log) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  EXPECT_EQ(h, kPinnedPlanLog) << std::hex << "got 0x" << h;
}

}  // namespace
}  // namespace megate

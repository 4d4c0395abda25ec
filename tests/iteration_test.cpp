// The control-iteration driver (ctrl::ControlIteration) and the agent
// fleet over the in-process transport: one iteration publishes a
// check-clean plan the fleet applies in one tick, a link cut is repaired
// and rerouted by the next iteration, the layer times add up, and every
// layer is a span under ctrl.iteration.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "megate/ctrl/agent.h"
#include "megate/ctrl/iteration.h"
#include "megate/ctrl/kvstore.h"
#include "megate/obs/metrics.h"
#include "megate/obs/span.h"
#include "megate/te/checker.h"
#include "megate/te/megate_solver.h"
#include "megate/te/online_allocator.h"
#include "megate/topo/failures.h"
#include "test_helpers.h"

namespace megate {
namespace {

te::CheckOptions strict_check() {
  te::CheckOptions copt;
  copt.require_flow_assignment = true;
  return copt;
}

/// Agents poll once per simulated second with phases in [0, 1), so one
/// tick at the next whole second polls every agent once.
ctrl::AgentOptions one_second_polls() {
  ctrl::AgentOptions aopt;
  aopt.poll_interval_s = 1.0;
  return aopt;
}

TEST(ControlIterationTest, PublishesACheckCleanPlanOneFleetTickApplies) {
  auto s = testing::make_scenario(8, 12, 2);
  ctrl::KvStore kv(4);
  ctrl::InProcessTransport db(&kv);
  te::MegaTeSolver solver;
  ctrl::ControlIteration driver(&db, solver,
                                testing::scenario_tunnel_options());
  const ctrl::IterationResult it =
      driver.run(s->problem(), s->tunnels, {}, strict_check());

  ASSERT_TRUE(it.check.ok) << ::testing::PrintToString(it.check.violations);
  EXPECT_GT(it.report.solution.satisfied_ratio(), 0.0);
  EXPECT_GT(it.delta.version, 0u);
  EXPECT_EQ(it.delta.version, kv.version());
  EXPECT_GT(it.delta.upserts, 0u);
  EXPECT_GT(it.delta.bytes, 0u);

  const std::vector<std::uint64_t> ids = ctrl::source_instances(s->traffic);
  ctrl::AgentFleet fleet(ids, 3, &db, one_second_polls());
  EXPECT_EQ(fleet.agents().size(), (ids.size() + 2) / 3);
  fleet.tick(1.0);
  EXPECT_EQ(fleet.at_version(it.delta.version), fleet.agents().size());
  // Every instance's agent installed exactly what the store holds for it.
  for (const std::uint64_t id : ids) {
    const ctrl::EndpointAgent* agent = fleet.agent_of(id);
    ASSERT_NE(agent, nullptr) << id;
    const ctrl::GetResult entry = kv.try_get(ctrl::path_key(id));
    const std::vector<ctrl::RouteEntry> stored =
        entry.status == ctrl::GetStatus::kOk
            ? ctrl::decode_routes(entry.value)
            : std::vector<ctrl::RouteEntry>{};
    EXPECT_EQ(agent->routes_for(id), stored) << id;
  }
}

TEST(ControlIterationTest, IterationAfterALinkCutReroutesOffDeadTunnels) {
  auto s = testing::make_scenario(8, 12, 2);
  ctrl::KvStore kv(4);
  ctrl::InProcessTransport db(&kv);
  te::MegaTeSolver solver;
  ctrl::ControlIteration driver(&db, solver,
                                testing::scenario_tunnel_options());
  const ctrl::IterationResult before =
      driver.run(s->problem(), s->tunnels, {}, strict_check());
  ASSERT_TRUE(before.check.ok);

  // Cut the busiest duplex link the graph can lose without a partition.
  const std::vector<double> usage =
      te::link_usage_gbps(s->problem(), before.report.solution);
  std::vector<topo::EdgeId> by_load(usage.size());
  for (topo::EdgeId e = 0; e < by_load.size(); ++e) by_load[e] = e;
  std::sort(by_load.begin(), by_load.end(), [&](auto a, auto b) {
    return usage[a] > usage[b];
  });
  topo::EdgeId cut = topo::kInvalidEdge;
  for (const topo::EdgeId e : by_load) {
    const topo::Link& l = s->graph.link(e);
    topo::EdgeId reverse = topo::kInvalidEdge;
    for (const topo::EdgeId r : s->graph.out_edges(l.dst)) {
      if (s->graph.link(r).dst == l.src) reverse = r;
    }
    if (topo::try_fail_link(s->graph, {e, reverse})) {
      cut = e;
      break;
    }
  }
  ASSERT_NE(cut, topo::kInvalidEdge);
  ASSERT_GT(usage[cut], 0.0) << "the cut must strike carried traffic";

  const ctrl::IterationResult after =
      driver.run(s->problem(), s->tunnels, {}, strict_check());
  ASSERT_TRUE(after.check.ok)
      << ::testing::PrintToString(after.check.violations);
  EXPECT_EQ(after.delta.version, before.delta.version + 1);
  EXPECT_EQ(after.delta.version, kv.version());
  EXPECT_GT(after.delta.upserts + after.delta.erases, 0u);
  std::size_t assigned = 0;
  for (const auto& [pair, alloc] : after.report.solution.pairs) {
    const auto& tunnels = s->tunnels.tunnels(pair.src, pair.dst);
    for (const std::int32_t t : alloc.flow_tunnel) {
      if (t < 0) continue;
      ++assigned;
      ASSERT_LT(static_cast<std::size_t>(t), tunnels.size());
      EXPECT_TRUE(tunnels[static_cast<std::size_t>(t)].alive(s->graph))
          << "flow of " << pair.src << "->" << pair.dst
          << " on a dead tunnel";
    }
  }
  EXPECT_GT(assigned, 0u);
}

TEST(ControlIterationTest, LayerTimesAreNonNegativeAndFitTheWallTime) {
  auto s = testing::make_scenario(8, 12, 2);
  ctrl::KvStore kv(2);
  ctrl::InProcessTransport db(&kv);
  te::MegaTeSolver solver;
  te::OnlineAllocator allocator;
  ctrl::ControlIteration driver(&db, solver,
                                testing::scenario_tunnel_options(),
                                &allocator);
  for (int i = 0; i < 3; ++i) {
    const ctrl::IterationResult it =
        driver.run(s->problem(), s->tunnels, {}, strict_check());
    ASSERT_TRUE(it.check.ok);
    for (const double layer :
         {it.repair_s, it.solve_s, it.check_s, it.publish_s, it.rebase_s}) {
      EXPECT_GE(layer, 0.0);
    }
    EXPECT_GT(it.solve_s, 0.0);
    EXPECT_LE(it.repair_s + it.solve_s + it.check_s + it.publish_s +
                  it.rebase_s,
              it.wall_s);
  }
  EXPECT_TRUE(allocator.has_base());
}

TEST(ControlIterationTest, EveryLayerIsASpanOncePerIteration) {
  auto s = testing::make_scenario(8, 12, 2);
  ctrl::KvStore kv(2);
  ctrl::InProcessTransport db(&kv);
  obs::MetricsRegistry reg;
  te::MegaTeOptions sopt;
  sopt.metrics = &reg;
  te::MegaTeSolver solver(sopt);
  te::OnlineAllocator allocator;
  ctrl::ControlIteration driver(&db, solver,
                                testing::scenario_tunnel_options(),
                                &allocator);
  constexpr std::uint64_t kIterations = 3;
  te::SolveReport last;
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    last = driver.run(s->problem(), s->tunnels, {}, strict_check()).report;
  }
  // A publish between iterations is its own span, outside ctrl.iteration.
  driver.publish(s->problem(), last.solution);

  const obs::MetricsSnapshot snap = reg.snapshot();
  for (const std::string name :
       {"span.ctrl.iteration", "span.ctrl.iteration/topo.repair_tunnels",
        "span.ctrl.iteration/te.solve",
        "span.ctrl.iteration/te.check_solution",
        "span.ctrl.iteration/ctrl.publish_solution",
        "span.ctrl.iteration/te.online.rebase",
        "ctrl.iteration.unattributed_s"}) {
    ASSERT_TRUE(snap.histograms.count(name)) << name;
    EXPECT_EQ(snap.histograms.at(name).count, kIterations) << name;
  }
  EXPECT_EQ(snap.histograms.at("span.ctrl.publish_solution").count, 1u);
  EXPECT_FALSE(snap.histograms.count("span.te.solve"))
      << "te.solve must nest under ctrl.iteration, not open a second span";
}

TEST(ControlIterationTest, AFailedCheckIsNeitherPublishedNorRebased) {
  auto s = testing::make_scenario(8, 12, 2);
  ctrl::KvStore kv(2);
  ctrl::InProcessTransport db(&kv);
  te::MegaTeSolver solver;
  te::OnlineAllocator allocator;
  ctrl::ControlIteration driver(&db, solver,
                                testing::scenario_tunnel_options(),
                                &allocator);
  te::CheckOptions impossible = strict_check();
  impossible.capacity_tolerance = -0.999;  // no loaded link passes
  const ctrl::IterationResult it =
      driver.run(s->problem(), s->tunnels, {}, impossible);
  EXPECT_FALSE(it.check.ok);
  EXPECT_EQ(it.delta.version, 0u);
  EXPECT_EQ(kv.version(), 0u);
  EXPECT_EQ(it.publish_s, 0.0);
  EXPECT_FALSE(allocator.has_base());
}

TEST(AgentFleetTest, ChunksTheSortedIdsAndMapsEachInstanceToItsAgent) {
  ctrl::KvStore kv(1);
  ctrl::InProcessTransport db(&kv);
  ctrl::AgentFleet fleet({1, 3, 5, 7, 9}, 2, &db, one_second_polls());
  ASSERT_EQ(fleet.agents().size(), 3u);
  EXPECT_EQ(fleet.agents()[0].instance_ids(),
            (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(fleet.agents()[2].instance_ids(),
            (std::vector<std::uint64_t>{9}));
  EXPECT_EQ(fleet.agent_of(7), &fleet.agents()[1]);
  EXPECT_EQ(fleet.agent_of(4), nullptr);
  EXPECT_EQ(fleet.at_version(0), 3u);

  const ctrl::Version v =
      db.publish_delta({.upserts = {{ctrl::path_key(5), "*:1,2"}}});
  fleet.tick(1.0);
  EXPECT_EQ(fleet.at_version(v), 3u);
  EXPECT_EQ(fleet.agent_of(5)->hops_for(5, 7),
            (std::vector<std::uint32_t>{1, 2}));
}

}  // namespace
}  // namespace megate

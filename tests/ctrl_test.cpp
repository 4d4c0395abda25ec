// Tests for megate::ctrl — the sharded KV store, controller publication,
// endpoint agents (bottom-up pull loop), the §6.4 sync cost model and the
// persistent-connection pressure simulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <thread>

#include "megate/ctrl/agent.h"
#include "megate/ctrl/connection_manager.h"
#include "megate/ctrl/controller.h"
#include "megate/ctrl/hybrid_sync.h"
#include "megate/ctrl/kvstore.h"
#include "megate/ctrl/sync_model.h"
#include "megate/te/megate_solver.h"
#include "megate/util/rng.h"
#include "megate/util/stats.h"
#include "test_helpers.h"

namespace megate::ctrl {
namespace {

// --- KvStore ---------------------------------------------------------------

TEST(KvStore, PublishBumpsVersionAtomically) {
  KvStore kv(2);
  EXPECT_EQ(kv.version(), 0u);
  const Version v1 = kv.publish_delta({.upserts = {{"x", "1"}, {"y", "2"}}});
  EXPECT_EQ(v1, 1u);
  EXPECT_EQ(kv.version(), 1u);
  EXPECT_EQ(kv.try_get("x").value, "1");
  // The GetResult's version stamps the snapshot the read observed.
  EXPECT_GE(kv.try_get("x").version, v1);
  const Version v2 = kv.publish_delta({.upserts = {{"x", "3"}}});
  EXPECT_EQ(v2, 2u);
  EXPECT_EQ(kv.try_get("x").value, "3");
  EXPECT_EQ(kv.try_get("y").value, "2");
}

TEST(KvStore, RejectsZeroShards) {
  EXPECT_THROW(KvStore(0), std::invalid_argument);
}

TEST(KvStore, CountsQueries) {
  KvStore kv(2);
  kv.publish_delta({.upserts = {{"k", "v"}}});
  const auto before = kv.query_count();
  (void)kv.try_get("k");
  (void)kv.try_get("k");
  (void)kv.try_get("nope");
  EXPECT_EQ(kv.query_count(), before + 3);
}

TEST(KvStore, KeysSpreadAcrossShards) {
  KvStore kv(4);
  KvDelta delta;
  for (int i = 0; i < 100; ++i) {
    delta.upserts.emplace_back("key" + std::to_string(i), "v");
  }
  kv.publish_delta(delta);
  EXPECT_EQ(kv.size(), 100u);
}

TEST(KvStore, ConcurrentReadersAndWriters) {
  KvStore kv(4);
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&kv, w] {
      for (int i = 0; i < 500; ++i) {
        kv.publish_delta(
            {.upserts = {{"k" + std::to_string(w) + "/" + std::to_string(i),
                          "v"}}});
        (void)kv.try_get("k0/" + std::to_string(i % 100));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(kv.size(), 4u * 500u);
  EXPECT_EQ(kv.version(), 4u * 500u);  // one version per write
}

// --- controller encode/decode ---------------------------------------------

TEST(Controller, HopCodecRoundTrip) {
  const std::vector<std::uint32_t> hops{1, 22, 333, 4444};
  EXPECT_EQ(decode_hops(encode_hops(hops)), hops);
  EXPECT_TRUE(decode_hops("").empty());
  EXPECT_TRUE(encode_hops({}).empty());
}

TEST(Controller, DecodeToleratesMalformedTail) {
  EXPECT_EQ(decode_hops("1,2,junk"), (std::vector<std::uint32_t>{1, 2}));
}

TEST(Controller, RouteCodecRoundTrip) {
  std::vector<RouteEntry> routes;
  routes.push_back({7, {1, 2, 3}});
  routes.push_back({dataplane::kAnyDstSite, {9}});
  EXPECT_EQ(decode_routes(encode_routes(routes)), routes);
  EXPECT_TRUE(decode_routes("").empty());
}

TEST(Controller, RouteCodecSkipsMalformedEntries) {
  auto routes = decode_routes("5:1,2|garbage|8:3");
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_EQ(routes[0].dst_site, 5u);
  EXPECT_EQ(routes[1].dst_site, 8u);
  EXPECT_EQ(routes[1].hops, (std::vector<std::uint32_t>{3}));
}

TEST(Controller, PublishPathStoresEntry) {
  // One wildcard route written through the transport's one-key publish:
  // the seeding every agent test uses.
  KvStore kv(2);
  InProcessTransport db(&kv);
  db.put(path_key(42), encode_routes({{dataplane::kAnyDstSite, {7, 8}}}));
  EXPECT_EQ(kv.version(), 1u);
  EXPECT_EQ(kv.try_get(path_key(42)).value, "*:7,8");
}

TEST(Controller, PublishSolutionWritesPerSourceInstance) {
  auto s = megate::testing::make_scenario(6, 10, 10, 0.2);
  te::MegaTeSolver solver;
  te::TeSolution sol = solver.solve(s->problem(), {}).solution;
  KvStore kv(2);
  InProcessTransport db(&kv);
  Controller ctrl(&db);
  ctrl.publish_solution(s->problem(), sol);
  EXPECT_EQ(kv.version(), 1u);
  EXPECT_GT(ctrl.entries_published(), 0u);
  // Every assigned flow's source instance must have a route-table entry
  // for the flow's destination site whose hop list ends at that site.
  std::size_t verified = 0;
  for (const auto& [pair, alloc] : sol.pairs) {
    auto it = s->traffic.pairs().find(pair);
    if (it == s->traffic.pairs().end()) continue;
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      if (alloc.flow_tunnel[i] < 0) continue;
      const GetResult entry = kv.try_get(path_key(it->second[i].src));
      ASSERT_TRUE(entry.ok());
      auto routes = decode_routes(entry.value);
      auto match = std::find_if(routes.begin(), routes.end(),
                                [&](const RouteEntry& r) {
                                  return r.dst_site == pair.dst;
                                });
      ASSERT_NE(match, routes.end());
      ASSERT_FALSE(match->hops.empty());
      EXPECT_EQ(match->hops.back(), pair.dst);
      ++verified;
    }
  }
  EXPECT_GT(verified, 0u);
}

// Forwards to a KvStore and records the last published delta.
class RecordingTransport final : public KvTransport {
 public:
  explicit RecordingTransport(KvStore* store) : inner_(store) {}
  Version version() override { return inner_.version(); }
  GetResult get(const std::string& key) override { return inner_.get(key); }
  MultiGetResult multi_get(const std::vector<std::string>& keys) override {
    return inner_.multi_get(keys);
  }
  Version publish(const std::vector<std::pair<std::string, std::string>>&
                      batch) override {
    KvDelta delta;
    delta.upserts = batch;
    return publish_delta(delta);
  }
  Version publish_delta(const KvDelta& delta) override {
    last = delta;
    return inner_.publish_delta(delta);
  }
  void put(const std::string& key, std::string value) override {
    inner_.put(key, std::move(value));
  }
  std::size_t num_shards() const override { return inner_.num_shards(); }
  std::size_t shard_index(const std::string& key) const override {
    return inner_.shard_index(key);
  }
  void set_shard_up(std::size_t shard, bool up) override {
    inner_.set_shard_up(shard, up);
  }
  bool shard_up(std::size_t shard) const override {
    return inner_.shard_up(shard);
  }
  const char* name() const noexcept override { return "recording"; }

  KvDelta last;

 private:
  InProcessTransport inner_;
};

// The differential publish algorithm as it was first written: nested
// per-instance maps of picked routes, encode_routes per table, and a
// diff of whole encoded tables against the previous publish.
class ReferencePublisher {
 public:
  KvDelta publish_solution(const te::TeProblem& problem,
                           const te::TeSolution& sol) {
    struct Picked {
      double demand = -1.0;
      RouteEntry route;
    };
    std::unordered_map<std::uint64_t,
                       std::unordered_map<std::uint32_t, Picked>>
        tables;
    for (const auto& [pair, alloc] : sol.pairs) {
      if (alloc.flow_tunnel.empty()) continue;
      auto it = problem.traffic->pairs().find(pair);
      if (it == problem.traffic->pairs().end()) continue;
      const auto& flows = it->second;
      const auto& tunnels = problem.tunnels->tunnels(pair.src, pair.dst);
      for (std::size_t i = 0;
           i < flows.size() && i < alloc.flow_tunnel.size(); ++i) {
        const std::int32_t t = alloc.flow_tunnel[i];
        if (t < 0 || static_cast<std::size_t>(t) >= tunnels.size()) continue;
        Picked& slot = tables[flows[i].src][pair.dst];
        if (flows[i].demand_gbps <= slot.demand) continue;
        slot.demand = flows[i].demand_gbps;
        slot.route.dst_site = pair.dst;
        slot.route.hops.clear();
        for (topo::EdgeId e : tunnels[t].links) {
          slot.route.hops.push_back(problem.graph->link(e).dst);
        }
      }
    }
    std::unordered_map<std::uint64_t, std::string> fresh;
    for (const auto& [instance, by_site] : tables) {
      std::vector<RouteEntry> routes;
      for (const auto& [site, picked] : by_site) {
        routes.push_back(picked.route);
      }
      std::sort(routes.begin(), routes.end(),
                [](const RouteEntry& a, const RouteEntry& b) {
                  return a.dst_site < b.dst_site;
                });
      fresh.emplace(instance, encode_routes(routes));
    }
    KvDelta delta;
    for (const auto& [instance, encoded] : fresh) {
      auto it = live.find(instance);
      if (it != live.end() && it->second == encoded) continue;
      delta.upserts.emplace_back(path_key(instance), encoded);
    }
    for (const auto& [instance, encoded] : live) {
      if (fresh.find(instance) == fresh.end()) {
        delta.erases.push_back(path_key(instance));
      }
    }
    live = std::move(fresh);
    return delta;
  }

  std::uint64_t full_table_bytes() const {
    std::uint64_t bytes = 0;
    for (const auto& [instance, encoded] : live) {
      bytes += path_key(instance).size() + encoded.size();
    }
    return bytes;
  }

  std::unordered_map<std::uint64_t, std::string> live;
};

TEST(Controller, PublishSolutionDeltaMatchesReference) {
  // A hand-built problem: 4 source sites with 6 instances each, routes
  // towards every other site and towards the wildcard destination, 3
  // tunnels per pair. Demands come from a 3-value set so equal-demand
  // flows of one (instance, destination) regularly sit on different
  // tunnels.
  topo::GeneratorOptions gopt;
  gopt.seed = 5;
  const topo::Graph graph = topo::make_isp_like(8, 14, gopt);
  constexpr std::uint32_t kSites = 4;
  std::vector<std::uint32_t> dsts{0, 1, 2, 3, dataplane::kAnyDstSite};
  topo::TunnelSet tunnels;
  for (std::uint32_t s = 0; s < kSites; ++s) {
    for (std::uint32_t d : dsts) {
      if (d == s) continue;
      std::vector<topo::Tunnel> ts(3);
      for (std::uint32_t t = 0; t < 3; ++t) {
        for (std::uint32_t h = 0; h <= t; ++h) {
          ts[t].links.push_back(
              static_cast<topo::EdgeId>((s * 7 + d * 3 + t * 5 + h) %
                                        graph.num_links()));
        }
      }
      tunnels.set_tunnels(s, d, std::move(ts));
    }
  }
  tm::TrafficMatrix traffic;
  te::TeProblem problem;
  problem.graph = &graph;
  problem.tunnels = &tunnels;
  problem.traffic = &traffic;

  util::Rng rng(2024);
  const double kDemands[] = {0.5, 1.0, 2.0};
  const auto add_flow = [&](const topo::SitePair& k) {
    tm::EndpointDemand d;
    d.src = k.src * 100 + rng.uniform_int(0, 5);
    d.dst = 7;
    d.demand_gbps = kDemands[rng.uniform_int(0, 2)];
    traffic.pairs()[k].push_back(d);
  };
  te::TeSolution sol;
  for (const auto& [k, ts] : tunnels.all()) {
    for (int f = 0; f < 6; ++f) add_flow(k);
  }

  KvStore kv(2);
  RecordingTransport rec(&kv);
  Controller ctrl(&rec);
  ReferencePublisher ref;
  const auto sorted = [](KvDelta d) {
    std::sort(d.upserts.begin(), d.upserts.end());
    std::sort(d.erases.begin(), d.erases.end());
    return d;
  };
  std::size_t upserts = 0, erases = 0;
  for (int step = 0; step < 30; ++step) {
    // Mutate the plan: add and remove flows, flip tunnels, and every few
    // steps reject every flow of one instance (its table is erased).
    for (auto& [k, flows] : traffic.pairs()) {
      if (rng.uniform_int(0, 3) == 0) add_flow(k);
      if (flows.size() > 2 && rng.uniform_int(0, 3) == 0) {
        flows.erase(flows.begin() + static_cast<std::ptrdiff_t>(
                                        rng.uniform_int(0, flows.size() - 1)));
      }
      auto& ft = sol.pairs[k].flow_tunnel;
      ft.resize(flows.size(), 0);
      for (auto& t : ft) {
        if (rng.uniform_int(0, 4) == 0) {
          // -1 rejects the flow; 3 is past the pair's last tunnel.
          t = static_cast<std::int32_t>(rng.uniform_int(0, 4)) - 1;
        }
      }
    }
    if (step % 4 == 3) {
      const std::uint64_t victim =
          rng.uniform_int(0, kSites - 1) * 100 + rng.uniform_int(0, 5);
      for (auto& [k, flows] : traffic.pairs()) {
        for (std::size_t i = 0; i < flows.size(); ++i) {
          if (flows[i].src == victim) sol.pairs[k].flow_tunnel[i] = -1;
        }
      }
    }
    ctrl.publish_solution(problem, sol);
    const KvDelta want = sorted(ref.publish_solution(problem, sol));
    const KvDelta got = sorted(rec.last);
    EXPECT_EQ(got.upserts, want.upserts) << "step " << step;
    EXPECT_EQ(got.erases, want.erases) << "step " << step;
    EXPECT_EQ(ctrl.last_publish_upserts(), want.upserts.size());
    EXPECT_EQ(ctrl.last_publish_erases(), want.erases.size());
    EXPECT_EQ(ctrl.last_publish_bytes(), want.bytes());
    EXPECT_EQ(ctrl.full_table_bytes(), ref.full_table_bytes());
    upserts += want.upserts.size();
    erases += want.erases.size();
  }
  // The sequence exercised both halves of the delta.
  EXPECT_GT(upserts, 0u);
  EXPECT_GT(erases, 0u);
  EXPECT_EQ(kv.size(), ref.live.size());
}

// --- endpoint agent ---------------------------------------------------------

TEST(Agent, PullsOnVersionChange) {
  KvStore kv(2);
  InProcessTransport db(&kv);
  AgentOptions opt;
  opt.poll_interval_s = 1.0;
  opt.spread_interval_s = 1.0;
  EndpointAgent agent(5, &db, nullptr, opt);
  agent.tick(0.5);  // before any publish: nothing to apply
  EXPECT_EQ(agent.applied_version(), 0u);
  kv.publish_delta({.upserts = {{path_key(5), "*:1,2,3"}}});
  agent.tick(3.0);
  EXPECT_EQ(agent.applied_version(), 1u);
  EXPECT_EQ(agent.hops_for(99), (std::vector<std::uint32_t>{1, 2, 3}))
      << "wildcard route applies to every destination site";
}

TEST(Agent, InstallsIntoHostStack) {
  KvStore kv(2);
  InProcessTransport db(&kv);
  dataplane::HostStack stack;
  stack.on_sys_enter_execve(1, 5);
  dataplane::FiveTuple t;
  t.src_ip = 1;
  t.dst_ip = 2;
  t.proto = dataplane::kProtoUdp;
  t.src_port = 100;
  t.dst_port = 200;
  stack.on_conntrack_event(t, 1);

  AgentOptions opt;
  opt.poll_interval_s = 1.0;
  EndpointAgent agent(5, &db, &stack, opt);
  kv.publish_delta({.upserts = {{path_key(5), "*:9,10"}}});
  agent.tick(5.0);
  // The stack now encapsulates this instance's packets with SR.
  dataplane::Buffer frame;
  dataplane::EthernetHeader eth;
  eth.serialize(frame);
  dataplane::Ipv4Header ip;
  ip.protocol = dataplane::kProtoUdp;
  ip.src_ip = 1;
  ip.dst_ip = 2;
  ip.total_length = dataplane::kIpv4HeaderSize + dataplane::kUdpHeaderSize;
  ip.serialize(frame);
  dataplane::UdpHeader udp;
  udp.src_port = 100;
  udp.dst_port = 200;
  udp.serialize(frame);
  auto v = stack.tc_egress(frame, 0xFF);
  EXPECT_EQ(v.action, dataplane::TcVerdict::Action::kEncapsulated);
}

TEST(Agent, AppliesOnlyChangedEntriesAndKeepsLastGoodOnDrop) {
  struct DropHooks : FaultHooks {
    bool drop = false;
    bool drop_pull(std::uint64_t) override { return drop; }
  } hooks;
  KvStore kv(2);
  InProcessTransport db(&kv);
  dataplane::HostStack stack;
  AgentOptions opt;
  opt.poll_interval_s = 1.0;
  opt.spread_interval_s = 1.0;
  opt.batch_pull = true;
  opt.fault_hooks = &hooks;
  EndpointAgent agent(std::vector<std::uint64_t>{1, 2, 3, 4}, &db, &stack,
                      opt);
  const auto route = [&](std::uint64_t id, std::uint32_t dst) {
    return stack.route_of(id, dst).value_or(std::vector<std::uint32_t>{});
  };
  using Hops = std::vector<std::uint32_t>;

  kv.publish_delta({.upserts = {{path_key(1), "5:1,5"},
                                {path_key(2), "6:2,6"},
                                {path_key(3), "*:3"}}});
  agent.tick(1.0);
  ASSERT_EQ(agent.applied_version(), 1u);
  EXPECT_EQ(route(1, 5), (Hops{1, 5}));
  EXPECT_EQ(route(3, dataplane::kAnyDstSite), (Hops{3}));

  // Overwrite two host routes behind the agent's back: a route the agent
  // rewrites shows its pulled hops again, a skipped one keeps the marker.
  stack.install_route(1, 5, {99});
  stack.install_route(2, 6, {98});

  // v2: 1 unchanged, 2 changed, 3 erased (kMiss), 4 new.
  KvDelta delta;
  delta.upserts = {{path_key(2), "6:2,8"}, {path_key(4), "7:4,7"}};
  delta.erases = {path_key(3)};
  kv.publish_delta(delta);
  agent.tick(2.0);
  ASSERT_EQ(agent.applied_version(), 2u);
  EXPECT_EQ(route(1, 5), (Hops{99})) << "unchanged entry was reinstalled";
  EXPECT_EQ(route(2, 6), (Hops{2, 8}));
  EXPECT_FALSE(stack.route_of(3, dataplane::kAnyDstSite).has_value());
  EXPECT_TRUE(agent.routes_for(3).empty());
  EXPECT_EQ(route(4, 7), (Hops{4, 7}));

  // A dropped pull of v3 changes neither the routes nor the stored raw
  // values: once v4 restores instance 1's v2 entry, the agent sees it as
  // unchanged and skips it.
  kv.publish_delta({.upserts = {{path_key(1), "5:1,9"}}});
  hooks.drop = true;
  agent.tick(3.0);
  EXPECT_EQ(agent.applied_version(), 2u);
  EXPECT_EQ(agent.routes_for(1), (std::vector<RouteEntry>{{5, {1, 5}}}));
  EXPECT_EQ(route(1, 5), (Hops{99}));
  hooks.drop = false;
  kv.publish_delta({.upserts = {{path_key(1), "5:1,5"}}});
  agent.tick(10.0);
  ASSERT_EQ(agent.applied_version(), 4u);
  EXPECT_EQ(route(1, 5), (Hops{99})) << "failed pull overwrote last-good";
  EXPECT_EQ(agent.routes_for(1), (std::vector<RouteEntry>{{5, {1, 5}}}));
}

TEST(Agent, PollCountTracksInterval) {
  KvStore kv(2);
  InProcessTransport db(&kv);
  AgentOptions opt;
  opt.poll_interval_s = 2.0;
  opt.spread_interval_s = 2.0;
  EndpointAgent agent(3, &db, nullptr, opt);
  agent.tick(10.0);
  // phase in [0,2) then every 2 s until 10 -> 5 or 6 polls.
  EXPECT_GE(agent.polls(), 5u);
  EXPECT_LE(agent.polls(), 6u);
}

TEST(Agent, SyncLagsBoundedByPollInterval) {
  KvStore kv(2);
  InProcessTransport db(&kv);
  AgentOptions opt;
  opt.poll_interval_s = 10.0;
  opt.spread_interval_s = 10.0;
  auto lags = measure_sync_lags(db, 500, opt, /*publish_at=*/30.0,
                                /*horizon=*/60.0, /*step=*/0.25);
  ASSERT_EQ(lags.size(), 500u);
  for (double lag : lags) {
    EXPECT_GE(lag, -0.26);  // tick quantization
    EXPECT_LE(lag, opt.poll_interval_s + 0.26)
        << "eventual consistency within one poll interval";
  }
  // Spreading: lags should cover the interval, not cluster at one point.
  const double spread = util::percentile(lags, 95) -
                        util::percentile(lags, 5);
  EXPECT_GT(spread, 0.5 * opt.poll_interval_s);
}

// --- sync cost model ---------------------------------------------------------

TEST(SyncModel, MatchesPaperPressureTest) {
  // Fig. 13 anchor: 6,000 connections -> 90% CPU, 750 MB.
  EXPECT_NEAR(top_down_cpu_percent(6000), 90.0, 1e-9);
  EXPECT_NEAR(top_down_memory_mb(6000), 750.0, 1e-9);
}

TEST(SyncModel, MatchesPaperMillionEndpointFigures) {
  // Fig. 14 anchor: 1M endpoints -> >= 167 cores, ~125 GB.
  const SyncResources r = top_down_resources(1'000'000);
  EXPECT_NEAR(r.cpu_cores, 167.0, 1.0);
  EXPECT_NEAR(r.memory_gb, 122.0, 3.0);
  const SyncResources b = bottom_up_resources(1'000'000);
  EXPECT_DOUBLE_EQ(b.cpu_cores, 1.0);
  EXPECT_DOUBLE_EQ(b.memory_gb, 1.0);
  EXPECT_EQ(b.db_shards, 2u);  // 100k QPS over two 80k shards
}

TEST(SyncModel, SmallFleetsFitOneCore) {
  const SyncResources r = top_down_resources(1000);
  EXPECT_DOUBLE_EQ(r.cpu_cores, 1.0);
  EXPECT_LE(r.memory_gb, 0.25);
}

TEST(SyncModel, MonotoneInEndpoints) {
  double prev_cores = 0.0;
  for (std::uint64_t n : {1000ull, 10000ull, 100000ull, 1000000ull}) {
    const SyncResources r = top_down_resources(n);
    EXPECT_GE(r.cpu_cores, prev_cores);
    prev_cores = r.cpu_cores;
  }
}

// --- connection manager pressure sim ------------------------------------

TEST(ConnectionManager, CalibratedCpuAtSixThousand) {
  ConnectionManager cm;
  cm.connect(6000);
  cm.run(100.0);
  EXPECT_NEAR(cm.cpu_utilization(), 0.90, 1e-9);
  EXPECT_NEAR(cm.memory_mb(), 750.0, 1e-6);
}

TEST(ConnectionManager, ScalesLinearly) {
  ConnectionManager cm;
  cm.connect(3000);
  cm.run(50.0);
  EXPECT_NEAR(cm.cpu_utilization(), 0.45, 1e-9);
}

TEST(ConnectionManager, PushAddsWork) {
  ConnectionManager a, b;
  a.connect(1000);
  b.connect(1000);
  a.run(10.0);
  b.run(10.0);
  b.push_config_all();
  EXPECT_GT(b.cpu_utilization(), a.cpu_utilization());
}

// --- pinned constants ------------------------------------------------------

/// Bit digests recorded at the commit before the sync models' calibration
/// became constants: the hybrid plan's push latency, spread interval and
/// per-connection costs, and the connection manager's heartbeat and push
/// costs. The connection digest was recorded again, by the same body at
/// the parent commit, when the connection-drop model was deleted.
constexpr std::uint64_t kPinnedHybridPlan = 0x2e72c876486de03ULL;
constexpr std::uint64_t kPinnedConnectionCosts = 0x26442f26670ff16bULL;

std::uint64_t pin_mix(std::uint64_t h, double v) {
  return (h ^ std::bit_cast<std::uint64_t>(v)) * 0x100000001B3ULL;
}

TEST(SyncPinned, HybridPlanMatchesParent) {
  auto s = megate::testing::make_scenario(8, 14, 40, 0.3);
  HybridSyncOptions opt;
  opt.heavy_traffic_share = 0.5;
  const HybridSyncPlan plan = plan_hybrid_sync(s->traffic, opt);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  h = pin_mix(h, static_cast<double>(plan.persistent_instances.size()));
  h = pin_mix(h, plan.mean_staleness_s);
  h = pin_mix(h, plan.worst_staleness_s);
  h = pin_mix(h, plan.db_queries_per_s);
  h = pin_mix(h, plan.resources.cpu_cores);
  h = pin_mix(h, plan.resources.memory_gb);
  h = pin_mix(h, static_cast<double>(plan.resources.db_shards));
  EXPECT_EQ(h, kPinnedHybridPlan) << std::hex << "got 0x" << h;
  // 1M queries/s over 80k-QPS shards: 12.5, rounded up.
  EXPECT_EQ(bottom_up_resources(10'000'000).db_shards, 13u);
}

TEST(ConnectionManagerPinned, CostsMatchParent) {
  ConnectionManager cm;
  cm.connect(1000);
  cm.run(10.0);
  cm.push_config_all();
  cm.run(5.0);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  h = pin_mix(h, cm.cpu_utilization());
  h = pin_mix(h, cm.memory_mb());
  EXPECT_EQ(h, kPinnedConnectionCosts) << std::hex << "got 0x" << h;
}

}  // namespace
}  // namespace megate::ctrl

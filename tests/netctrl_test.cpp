// Multi-process control-plane tests (PR 6 tentpole): real megate_shardd
// and megate_agentd child processes on loopback TCP, driven through the
// same chaos harness and property suites as the in-process transport.
//
//   - kill/restart mid-publish with snapshot (redo-log analog) replay;
//   - chaos fingerprint parity: the same seeded FaultPlan produces a
//     bit-identical report over {in-process, TCP+admin, TCP+SIGKILL,
//     TCP+SIGSTOP} shard-fault seams;
//   - transport-differential batched-pull suite: identical sync-lag
//     distributions and KV version cuts over {in-process, TCP};
//   - the 2-shard + 4-agent acceptance topology surviving a seeded shard
//     kill/restart and a network partition (SIGSTOP).
//
// The shardd/agentd binaries are located relative to the test binary
// (build*/tests/.. -> build*/tools); MEGATE_SHARDD_BIN and
// MEGATE_AGENTD_BIN override.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "megate/ctrl/agent.h"
#include "megate/ctrl/controller.h"
#include "megate/ctrl/kvstore.h"
#include "megate/ctrl/transport.h"
#include "megate/fault/chaos.h"
#include "megate/fault/process.h"
#include "megate/net/tcp_transport.h"
#include "megate/obs/json.h"
#include "megate/obs/metrics.h"
#include "megate/obs/span.h"

namespace megate {
namespace {

using ctrl::GetStatus;

// --- binary discovery -------------------------------------------------------

std::string self_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  const std::string path(buf);
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

std::string tool_path(const char* env_override, const char* name) {
  if (const char* p = std::getenv(env_override); p != nullptr && *p != '\0') {
    return p;
  }
  return self_dir() + "/../tools/" + name;
}

std::string shardd_path() {
  return tool_path("MEGATE_SHARDD_BIN", "megate_shardd");
}
std::string agentd_path() {
  return tool_path("MEGATE_AGENTD_BIN", "megate_agentd");
}

bool executable_exists(const std::string& path) {
  return ::access(path.c_str(), X_OK) == 0;
}

#define REQUIRE_DAEMON(path_expr)                                          \
  do {                                                                     \
    if (!executable_exists(path_expr)) {                                   \
      GTEST_SKIP() << "daemon binary not built: " << (path_expr);          \
    }                                                                      \
  } while (0)

// --- child helpers ----------------------------------------------------------

using fault::Shardd;

net::TcpTransportOptions controller_options(
    const std::vector<std::uint16_t>& ports) {
  net::TcpTransportOptions o;
  o.ports = ports;
  o.peer_name = "netctrl-test";
  o.request_timeout_ms = 5000;  // sanitizer headroom
  o.backoff_initial_ms = 10;
  return o;
}

// --- process-level kill / restart ------------------------------------------

// A daemon whose announcement is not "LISTENING <port>" is refused with
// false, never an exception: the stand-in is a shell script that prints
// the line under test and ignores the daemon flags.
TEST(NetctrlProcessTest, SpawnRefusesMalformedListeningLines) {
  std::string dir_template =
      (std::filesystem::temp_directory_path() / "megate-spawn-XXXXXX")
          .string();
  const char* dir = ::mkdtemp(dir_template.data());
  ASSERT_NE(dir, nullptr);
  const std::string script = std::string(dir) + "/fake_shardd.sh";
  const auto announce = [&](const std::string& line, Shardd* out) {
    {
      std::ofstream f(script, std::ios::trunc);
      f << "#!/bin/sh\necho '" << line << "'\n";
    }
    ::chmod(script.c_str(), 0755);
    return fault::spawn_shardd(script, 0, false, 0, out);
  };
  for (const std::string bad :
       {"LISTENING abc", "LISTENING 1234567890123456789012345",
        "LISTENING 0", "LISTENING 70000", "LISTENING 80x", "LISTENING -1",
        "LISTENING ", "HELLO 80"}) {
    Shardd out;
    bool ok = true;
    EXPECT_NO_THROW(ok = announce(bad, &out)) << bad;
    EXPECT_FALSE(ok) << bad;
  }
  Shardd good;
  EXPECT_TRUE(announce("LISTENING 4242", &good));
  EXPECT_EQ(good.port, 4242);
  std::remove(script.c_str());
  ::rmdir(dir);
}

TEST(NetctrlProcessTest, KillRestartMidPublishReplaysStateOverSnapshot) {
  REQUIRE_DAEMON(shardd_path());
  Shardd s0, s1;
  ASSERT_TRUE(fault::spawn_shardd(shardd_path(), 0, false, 0, &s0));
  ASSERT_TRUE(fault::spawn_shardd(shardd_path(), 0, false, 1, &s1));

  net::TcpKvTransport db(controller_options({s0.port, s1.port}));

  std::vector<std::string> keys;
  std::vector<std::pair<std::string, std::string>> batch;
  for (int i = 0; i < 24; ++i) {
    keys.push_back(ctrl::path_key(static_cast<std::uint64_t>(i)));
    batch.emplace_back(keys.back(), "v1-" + std::to_string(i));
  }
  ASSERT_EQ(db.publish(batch), 1u);

  // SIGKILL shard 0 mid-sequence; publishes keep flowing (shard 0's
  // share lives only in the controller mirror until the resync).
  db.set_reachable(0, false);
  s0.proc.terminate();
  ctrl::KvDelta d2, d3;
  for (int i = 0; i < 24; ++i) d2.upserts.emplace_back(keys[i], "v2-" + std::to_string(i));
  for (int i = 0; i < 12; ++i) d3.upserts.emplace_back(keys[i], "v3-" + std::to_string(i));
  ASSERT_EQ(db.publish_delta(d2), 2u);
  ASSERT_EQ(db.publish_delta(d3), 3u);

  // Restart empty on the same port in recovery mode. Before the resync,
  // an agent sees shard 0's keys as unavailable — the --recover flag
  // closes the stale-read window a restarted-empty server would open.
  Shardd fresh;
  ASSERT_TRUE(fault::spawn_shardd(shardd_path(), s0.port, /*recover=*/true,
                                  0, &fresh));
  net::TcpTransportOptions agent_opts = controller_options({fresh.port, s1.port});
  agent_opts.role = net::HelloMsg::kRoleAgent;
  agent_opts.peer_name = "probe-agent";
  net::TcpKvTransport probe(agent_opts);
  bool saw_unavailable = false;
  for (const std::string& k : keys) {
    if (db.shard_index(k) != 0) continue;
    EXPECT_EQ(probe.get(k).status, GetStatus::kUnavailable) << k;
    saw_unavailable = true;
  }
  EXPECT_TRUE(saw_unavailable);  // some keys hash to shard 0

  // Snapshot resync replays everything the dead server missed.
  ASSERT_TRUE(db.resync_shard(0));
  const ctrl::MultiGetResult r = db.multi_get(keys);
  EXPECT_TRUE(r.all_available());
  EXPECT_EQ(r.version, 3u);
  for (int i = 0; i < 24; ++i) {
    const std::string want =
        (i < 12 ? "v3-" : "v2-") + std::to_string(i);
    EXPECT_EQ(r.entries[i].value, want) << keys[i];
  }
  // The fresh agent-side view converges to the same cut.
  EXPECT_EQ(probe.version(), 3u);
  const ctrl::MultiGetResult ra = probe.multi_get(keys);
  EXPECT_TRUE(ra.all_available());
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(ra.entries[i].value, r.entries[i].value) << keys[i];
  }
}

// --- chaos fingerprint parity across transports -----------------------------

fault::ChaosOptions tcp_chaos_base() {
  fault::ChaosOptions o;
  o.sites = 8;
  o.duplex_links = 12;
  o.endpoints_per_site = 2;
  o.intervals = 6;
  o.interval_s = 15.0;
  o.poll_interval_s = 4.0;
  o.instances_per_agent = 3;
  o.kv_shards = 2;  // two child processes per TCP run
  o.plan.seed = 21;
  o.plan.horizon_s = 0.0;
  o.plan.quiet_tail_s = 45.0;
  o.plan.shard_crashes = 0;
  o.plan.link_failures = 0;
  o.plan.pull_drop_windows = 0;
  o.plan.stale_windows = 0;
  return o;
}

void expect_transport_parity(const fault::ChaosOptions& base,
                             fault::ShardFaultMode mode, const char* tag) {
  const fault::ChaosReport inproc = fault::run_chaos(base);
  fault::ChaosOptions over_tcp = base;
  over_tcp.transport = fault::ChaosTransportMode::kTcp;
  over_tcp.shard_fault_mode = mode;
  over_tcp.shardd_binary = shardd_path();
  const fault::ChaosReport tcp = fault::run_chaos(over_tcp);

  EXPECT_EQ(inproc.fingerprint, tcp.fingerprint) << tag;
  EXPECT_EQ(inproc.event_log, tcp.event_log) << tag;
  EXPECT_EQ(inproc.churn_log, tcp.churn_log) << tag;
  EXPECT_EQ(inproc.violations, tcp.violations) << tag;
  EXPECT_EQ(inproc.final_version, tcp.final_version) << tag;
  EXPECT_EQ(inproc.convergence_intervals_used,
            tcp.convergence_intervals_used)
      << tag;
  EXPECT_TRUE(tcp.ok()) << tag;
}

TEST(ChaosTransportParityTest, FaultFreeRunFingerprintsIdentically) {
  REQUIRE_DAEMON(shardd_path());
  expect_transport_parity(tcp_chaos_base(), fault::ShardFaultMode::kAdmin,
                          "fault-free/admin");
}

TEST(ChaosTransportParityTest, ShardCrashesViaAdminSeam) {
  REQUIRE_DAEMON(shardd_path());
  fault::ChaosOptions o = tcp_chaos_base();
  o.plan.shard_crashes = 2;
  expect_transport_parity(o, fault::ShardFaultMode::kAdmin,
                          "shard-crashes/admin");
}

TEST(ChaosTransportParityTest, ShardCrashesViaRealProcessKillRestart) {
  REQUIRE_DAEMON(shardd_path());
  fault::ChaosOptions o = tcp_chaos_base();
  o.plan.shard_crashes = 2;
  expect_transport_parity(o, fault::ShardFaultMode::kKillRestart,
                          "shard-crashes/kill-restart");
}

TEST(ChaosTransportParityTest, ShardCrashesViaSigstopPartition) {
  REQUIRE_DAEMON(shardd_path());
  fault::ChaosOptions o = tcp_chaos_base();
  o.plan.shard_crashes = 2;
  expect_transport_parity(o, fault::ShardFaultMode::kSigstop,
                          "shard-crashes/sigstop");
}

TEST(ChaosTransportParityTest, ChurnAndFaultsWithOnlinePatch) {
  REQUIRE_DAEMON(shardd_path());
  fault::ChaosOptions o = tcp_chaos_base();
  o.plan.shard_crashes = 2;
  o.churn.seed = 5;
  o.churn.flow_scale_events = 6;
  o.churn.flash_crowds = 2;
  o.churn.endpoint_arrivals = 1;
  o.churn.endpoint_departures = 1;
  o.online_patch = true;
  expect_transport_parity(o, fault::ShardFaultMode::kKillRestart,
                          "churn+faults/online/kill-restart");
}

TEST(ChaosTransportParityTest, AllFaultKindsBatchedPullOverKillRestart) {
  REQUIRE_DAEMON(shardd_path());
  fault::ChaosOptions o = tcp_chaos_base();
  o.plan.seed = 22;
  o.plan.shard_crashes = 2;
  o.plan.link_failures = 1;
  o.plan.pull_drop_windows = 1;
  o.plan.stale_windows = 1;
  o.batch_pull = true;
  expect_transport_parity(o, fault::ShardFaultMode::kKillRestart,
                          "all-kinds/kill-restart/batched");
}

TEST(ChaosTransportParityTest, TcpFreezeCarriesEveryOwnerBinding) {
  // The frozen export of a TCP chaos run carries every name the owners'
  // own bindings expose: TcpKvTransport::bind_metrics and
  // ctrl::register_counters, plus the run's final kv.version.
  REQUIRE_DAEMON(shardd_path());
  fault::ChaosOptions o = tcp_chaos_base();
  o.intervals = 3;
  o.transport = fault::ChaosTransportMode::kTcp;
  o.shardd_binary = shardd_path();
  obs::MetricsRegistry reg;
  o.metrics = &reg;
  (void)fault::run_chaos(o);
  const auto snap = reg.snapshot();

  obs::MetricsRegistry owners;
  const net::TcpKvTransport unused(controller_options({1, 2}));
  unused.bind_metrics(owners);
  ctrl::ControlCounters counters;
  ctrl::register_counters(owners, counters);
  const auto names = owners.snapshot();
  for (const auto& [name, v] : names.counters) {
    EXPECT_TRUE(snap.counters.count(name)) << name;
  }
  for (const auto& [name, v] : names.gauges) {
    EXPECT_TRUE(snap.gauges.count(name)) << name;
  }
  EXPECT_TRUE(snap.counters.count("net.client.connect_failures"));
  EXPECT_TRUE(snap.gauges.count("net.client.version"));
  EXPECT_TRUE(snap.counters.count("kv.version"));
}

// --- transport-differential batched-pull suite ------------------------------

struct TcpRig {
  Shardd s0, s1;
  std::unique_ptr<net::TcpKvTransport> db;

  bool start() {
    if (!fault::spawn_shardd(shardd_path(), 0, false, 0, &s0)) return false;
    if (!fault::spawn_shardd(shardd_path(), 0, false, 1, &s1)) return false;
    db = std::make_unique<net::TcpKvTransport>(
        controller_options({s0.port, s1.port}));
    return true;
  }
};

TEST(TransportDifferentialTest, SyncLagDistributionIdenticalAcrossTransports) {
  REQUIRE_DAEMON(shardd_path());
  ctrl::AgentOptions opt;
  opt.poll_interval_s = 5.0;

  for (const bool batch : {false, true}) {
    ctrl::AgentOptions o = opt;
    o.batch_pull = batch;

    ctrl::KvStore kv(2);
    ctrl::InProcessTransport inproc(&kv);
    const std::vector<double> local = ctrl::measure_sync_lags(
        inproc, /*n_instances=*/96, o, /*publish_at_s=*/20.0,
        /*horizon_s=*/60.0, /*tick_step_s=*/0.5, /*instances_per_agent=*/4);

    TcpRig rig;  // fresh servers per run: same version history as `kv`
    ASSERT_TRUE(rig.start());
    const std::vector<double> remote = ctrl::measure_sync_lags(
        *rig.db, 96, o, 20.0, 60.0, 0.5, 4);

    ASSERT_EQ(local.size(), 96u);
    // Identical sync-lag distribution, instance for instance: the wire
    // changes how entries travel, never when an instance converges.
    EXPECT_EQ(local, remote) << (batch ? "batched" : "per-key");
    // And the same KV version cut on both sides of the seam.
    EXPECT_EQ(rig.db->version(), inproc.version())
        << (batch ? "batched" : "per-key");
  }
}

TEST(TransportDifferentialTest, PublishedCutsAreByteIdentical) {
  REQUIRE_DAEMON(shardd_path());
  TcpRig rig;
  ASSERT_TRUE(rig.start());
  ctrl::KvStore kv(2);
  ctrl::InProcessTransport inproc(&kv);

  // Same publish sequence on both transports, including erases and a
  // mid-sequence shard-down window buffering writes.
  std::vector<ctrl::KvDelta> deltas(4);
  for (int i = 0; i < 16; ++i) {
    deltas[0].upserts.emplace_back(ctrl::path_key(i), "a" + std::to_string(i));
  }
  for (int i = 0; i < 16; i += 2) {
    deltas[1].upserts.emplace_back(ctrl::path_key(i), "b" + std::to_string(i));
  }
  for (int i = 1; i < 16; i += 4) deltas[2].erases.push_back(ctrl::path_key(i));
  for (int i = 0; i < 16; i += 3) {
    deltas[3].upserts.emplace_back(ctrl::path_key(i), "c" + std::to_string(i));
  }

  for (std::size_t step = 0; step < deltas.size(); ++step) {
    if (step == 1) {
      rig.db->set_shard_up(1, false);
      inproc.set_shard_up(1, false);
    }
    if (step == 3) {
      rig.db->set_shard_up(1, true);
      inproc.set_shard_up(1, true);
    }
    EXPECT_EQ(rig.db->publish_delta(deltas[step]),
              inproc.publish_delta(deltas[step]))
        << "step " << step;
  }

  std::vector<std::string> keys;
  for (int i = 0; i < 16; ++i) keys.push_back(ctrl::path_key(i));
  const ctrl::MultiGetResult a = rig.db->multi_get(keys);
  const ctrl::MultiGetResult b = inproc.multi_get(keys);
  EXPECT_EQ(a.version, b.version);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].status, b.entries[i].status) << keys[i];
    EXPECT_EQ(a.entries[i].value, b.entries[i].value) << keys[i];
    EXPECT_EQ(a.entries[i].version, b.entries[i].version) << keys[i];
  }
}

// --- 2-shard + 4-agent multi-process acceptance ------------------------------

std::vector<ctrl::RouteEntry> routes_for_instance(std::uint64_t id, int gen) {
  std::vector<ctrl::RouteEntry> routes;
  ctrl::RouteEntry e;
  e.dst_site = static_cast<std::uint32_t>(id % 4);
  e.hops = {static_cast<std::uint32_t>(gen),
            static_cast<std::uint32_t>(id + 1)};
  routes.push_back(e);
  if (id % 2 == 0) {
    ctrl::RouteEntry f;
    f.dst_site = static_cast<std::uint32_t>(4 + gen);
    f.hops = {static_cast<std::uint32_t>(10 * gen + id)};
    routes.push_back(f);
  }
  return routes;
}

void publish_generation(net::TcpKvTransport& db, int gen) {
  std::vector<std::pair<std::string, std::string>> batch;
  for (std::uint64_t id = 0; id < 8; ++id) {
    batch.emplace_back(ctrl::path_key(id),
                       ctrl::encode_routes(routes_for_instance(id, gen)));
  }
  db.publish(batch);
}

TEST(NetctrlAcceptanceTest, TwoShardsFourAgentsSurviveKillAndPartition) {
  REQUIRE_DAEMON(shardd_path());
  REQUIRE_DAEMON(agentd_path());

  Shardd s0, s1;
  ASSERT_TRUE(fault::spawn_shardd(shardd_path(), 0, false, 0, &s0));
  ASSERT_TRUE(fault::spawn_shardd(shardd_path(), 0, false, 1, &s1));
  net::TcpKvTransport db(controller_options({s0.port, s1.port}));

  // Generation 1 is live before any agent starts.
  publish_generation(db, 1);

  const std::string ports_csv =
      std::to_string(s0.port) + "," + std::to_string(s1.port);
  const std::string dir = ::testing::TempDir();
  std::vector<fault::ChildProcess> agents(4);
  std::vector<std::string> status_paths;
  for (int a = 0; a < 4; ++a) {
    const std::string instances =
        std::to_string(2 * a) + "," + std::to_string(2 * a + 1);
    status_paths.push_back(dir + "netctrl_agent" + std::to_string(a) +
                           ".json");
    std::remove(status_paths.back().c_str());
    ASSERT_TRUE(agents[a].spawn(
        agentd_path(),
        {"--shard-ports", ports_csv, "--instances", instances,
         "--duration-s", "8", "--poll-interval-s", "0.1", "--status-json",
         status_paths[a], "--name", "agentd" + std::to_string(a)}));
    std::string line;
    ASSERT_TRUE(agents[a].read_line(&line, 15000));
    EXPECT_EQ(line, "READY");
  }

  // Phase 1 — seeded shard kill mid-run: generation 2 is published while
  // shard 0 is dead, then the restarted daemon is caught up by snapshot.
  ::usleep(300000);
  db.set_reachable(0, false);
  s0.proc.terminate();
  publish_generation(db, 2);
  Shardd fresh0;
  ASSERT_TRUE(fault::spawn_shardd(shardd_path(), s0.port, /*recover=*/true,
                                  0, &fresh0));
  ASSERT_TRUE(db.resync_shard(0));

  // Phase 2 — network partition: shard 1 freezes (SIGSTOP: alive but
  // mute), generation 3 is published past it, then the partition heals
  // and the shard resyncs.
  ::usleep(300000);
  db.set_reachable(1, false);
  ASSERT_TRUE(s1.proc.stop());
  publish_generation(db, 3);
  ::usleep(500000);
  ASSERT_TRUE(s1.proc.resume());
  ASSERT_TRUE(db.resync_shard(1));
  const ctrl::Version final_version = db.version();
  EXPECT_EQ(final_version, 3u);

  // Agents run out their 8 s clocks and report. Every one of them must
  // have converged on generation 3 despite the kill and the partition.
  for (int a = 0; a < 4; ++a) {
    int status = 0;
    ASSERT_TRUE(agents[a].wait_exit(30000, &status)) << "agent " << a;
    EXPECT_EQ(status, 0) << "agent " << a;
  }
  for (int a = 0; a < 4; ++a) {
    std::ifstream in(status_paths[a]);
    ASSERT_TRUE(in.good()) << status_paths[a];
    std::stringstream ss;
    ss << in.rdbuf();
    const auto doc = obs::Json::parse(ss.str());
    ASSERT_TRUE(doc.has_value()) << status_paths[a];
    const obs::Json* applied = doc->find("applied_version");
    ASSERT_NE(applied, nullptr);
    EXPECT_EQ(applied->as_uint(), final_version) << "agent " << a;
    const obs::Json* polls = doc->find("polls");
    ASSERT_NE(polls, nullptr);
    EXPECT_GT(polls->as_uint(), 0u);
    const obs::Json* routes = doc->find("routes");
    ASSERT_NE(routes, nullptr);
    for (std::uint64_t id = 2 * static_cast<std::uint64_t>(a);
         id <= 2 * static_cast<std::uint64_t>(a) + 1; ++id) {
      const obs::Json* table = routes->find(std::to_string(id));
      ASSERT_NE(table, nullptr) << "agent " << a << " instance " << id;
      EXPECT_EQ(table->as_string(),
                ctrl::encode_routes(routes_for_instance(id, 3)))
          << "agent " << a << " instance " << id;
    }
  }
}

}  // namespace
}  // namespace megate

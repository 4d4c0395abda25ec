// Tests for the epoch-snapshot TE database (PR 4): GetResult semantics
// and version tags, copy-on-write delta publishes with erases, snapshot
// growth/rebuild accounting, the versioned redo log's replay order,
// multi_get's consistent cut — plus a concurrency suite
// (readers + publisher + shard flaps, run under TSan in ci.sh) and the
// batched-pull property suite asserting KvStore::multi_get-based agent
// pulls are behaviourally identical to per-key pulls under every fault
// plan kind from the PR-1 harness.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "megate/ctrl/agent.h"
#include "megate/ctrl/controller.h"
#include "megate/ctrl/kvstore.h"
#include "megate/fault/chaos.h"
#include "megate/obs/metrics.h"
#include "megate/obs/span.h"

namespace megate {
namespace {

using ctrl::GetResult;
using ctrl::GetStatus;
using ctrl::KvDelta;
using ctrl::KvStore;
using ctrl::MultiGetResult;
using ctrl::Version;

// --- GetResult semantics ----------------------------------------------------

TEST(KvSnapshotTest, GetResultCarriesStatusValueAndVersion) {
  KvStore kv(2);
  EXPECT_EQ(kv.try_get("absent").status, GetStatus::kMiss);
  EXPECT_TRUE(kv.try_get("absent").value.empty());
  EXPECT_EQ(kv.try_get("absent").version, 0u);

  const Version v1 = kv.publish_delta({.upserts = {{"a", "1"}, {"b", "2"}}});
  const GetResult hit = kv.try_get("a");
  EXPECT_EQ(hit.status, GetStatus::kOk);
  EXPECT_TRUE(hit.ok());
  EXPECT_EQ(hit.value, "1");
  EXPECT_EQ(hit.version, v1);
  // A miss after a publish still reports the version it is consistent
  // with: the caller can tell "absent as of v1" from "absent, never
  // published".
  EXPECT_EQ(kv.try_get("absent").version, v1);
}

TEST(KvSnapshotTest, VersionTagIsMonotonePerKey) {
  KvStore kv(4);
  Version last = 0;
  for (int round = 0; round < 5; ++round) {
    const Version v =
        kv.publish_delta({.upserts = {{"key", std::to_string(round)}}});
    const GetResult r = kv.try_get("key");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value, std::to_string(round));
    EXPECT_GT(r.version, last);
    EXPECT_EQ(r.version, v);
    last = r.version;
  }
}

// --- delta publish ----------------------------------------------------------

TEST(KvSnapshotTest, PublishDeltaAppliesUpsertsAndErases) {
  KvStore kv(2);
  kv.publish_delta({.upserts = {{"a", "1"}, {"b", "2"}, {"c", "3"}}});

  KvDelta delta;
  delta.upserts = {{"b", "20"}, {"d", "4"}};
  delta.erases = {"c", "never-existed"};
  const Version v2 = kv.publish_delta(delta);
  EXPECT_EQ(v2, 2u);

  EXPECT_EQ(kv.try_get("a").value, "1");   // untouched key survives
  EXPECT_EQ(kv.try_get("b").value, "20");  // upsert replaced
  EXPECT_EQ(kv.try_get("d").value, "4");   // upsert inserted
  EXPECT_EQ(kv.try_get("c").status, GetStatus::kMiss);  // erased
  EXPECT_EQ(kv.size(), 3u);
}

TEST(KvSnapshotTest, DeltaBytesCountLogicalPayload) {
  KvStore kv(2);
  KvDelta delta;
  delta.upserts = {{"key1", "value1"}, {"key2", "vv"}};
  delta.erases = {"key3"};
  const std::uint64_t before = kv.delta_bytes();
  kv.publish_delta(delta);
  EXPECT_EQ(kv.delta_bytes() - before, delta.bytes());
  EXPECT_EQ(kv.delta_keys(), 3u);
  // Accounting is the same for full publishes (upserts-only deltas).
  const std::uint64_t mid = kv.delta_bytes();
  kv.publish_delta({.upserts = {{"abc", "de"}}});
  EXPECT_EQ(kv.delta_bytes() - mid, 5u);
}

TEST(KvSnapshotTest, EmptyDeltaStillBumpsVersion) {
  KvStore kv(2);
  const Version v = kv.publish_delta(KvDelta{});
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(kv.version(), 1u);
}

TEST(KvSnapshotTest, SmallDeltaDoesNotRebuildStableTable) {
  KvStore kv(1);
  // Build a table large enough that its bucket array is settled.
  KvDelta table;
  for (int i = 0; i < 256; ++i) {
    table.upserts.emplace_back("key/" + std::to_string(i), "*:1,2,3");
  }
  kv.publish_delta(table);
  const std::uint64_t rebuilds = kv.snapshot_rebuilds();
  const std::uint64_t installs = kv.snapshot_installs();

  // A churn-sized delta clones touched buckets only: one new snapshot,
  // zero full rehashes.
  KvDelta delta;
  for (int i = 0; i < 16; ++i) {
    delta.upserts.emplace_back("key/" + std::to_string(i), "*:4,5");
  }
  kv.publish_delta(delta);
  EXPECT_EQ(kv.snapshot_rebuilds(), rebuilds);
  EXPECT_EQ(kv.snapshot_installs(), installs + 1);
}

TEST(KvSnapshotTest, GrowthTriggersRebuild) {
  KvStore kv(1);
  EXPECT_EQ(kv.snapshot_rebuilds(), 0u);
  KvDelta batch;
  for (int i = 0; i < 512; ++i) {
    batch.upserts.emplace_back("grow/" + std::to_string(i), "v");
  }
  kv.publish_delta(batch);
  EXPECT_GT(kv.snapshot_rebuilds(), 0u);
  for (int i = 0; i < 512; ++i) {
    EXPECT_TRUE(kv.try_get("grow/" + std::to_string(i)).ok());
  }
}

TEST(KvSnapshotTest, PayloadBytesTrackUpsertsAndErases) {
  KvStore kv(2);
  kv.publish_delta({.upserts = {{"ab", "cd"}}});  // 4 payload bytes
  EXPECT_EQ(kv.payload_bytes(), 4u);
  KvDelta delta;
  delta.upserts = {{"ab", "cdef"}};  // value grows by 2
  kv.publish_delta(delta);
  EXPECT_EQ(kv.payload_bytes(), 6u);
  delta = {};
  delta.erases = {"ab"};
  kv.publish_delta(delta);
  EXPECT_EQ(kv.payload_bytes(), 0u);
  EXPECT_EQ(kv.size(), 0u);
}

// --- versioned redo log (satellite: replay ordering) ------------------------

TEST(KvSnapshotTest, RedoLogReplaysVersionedErase) {
  KvStore kv(1);
  kv.publish_delta({.upserts = {{"gone", "x"}, {"kept", "y"}}});
  kv.set_shard_up(0, false);
  KvDelta d;
  d.erases = {"gone"};
  const Version v = kv.publish_delta(d);
  kv.set_shard_up(0, true);
  EXPECT_EQ(kv.try_get("gone").status, GetStatus::kMiss);
  const GetResult kept = kv.try_get("kept");
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept.value, "y");
  EXPECT_GE(kept.version, v);
}

// --- multi_get --------------------------------------------------------------

TEST(KvSnapshotTest, MultiGetReturnsOneConsistentCut) {
  KvStore kv(4);
  const Version v =
      kv.publish_delta({.upserts = {{"a", "1"}, {"b", "2"}, {"c", "3"}}});
  const MultiGetResult r = kv.multi_get({"a", "missing", "c"});
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.version, v);
  ASSERT_EQ(r.entries.size(), 3u);  // parallel to the requested keys
  EXPECT_EQ(r.entries[0].value, "1");
  EXPECT_EQ(r.entries[1].status, GetStatus::kMiss);
  EXPECT_EQ(r.entries[2].value, "3");
  EXPECT_TRUE(r.all_available());
  EXPECT_EQ(kv.multi_get_count(), 1u);
}

TEST(KvSnapshotTest, MultiGetFlagsDownShardEntries) {
  KvStore kv(4);
  kv.publish_delta({.upserts = {{"a", "1"}, {"b", "2"}}});
  kv.set_shard_up(kv.shard_index("a"), false);
  const MultiGetResult r = kv.multi_get({"a", "b"});
  EXPECT_EQ(r.entries[0].status, GetStatus::kUnavailable);
  EXPECT_FALSE(r.all_available());
  if (kv.shard_index("b") != kv.shard_index("a")) {
    EXPECT_EQ(r.entries[1].status, GetStatus::kOk);
  }
}

TEST(KvSnapshotTest, MultiGetCountsOneQueryPerKey) {
  KvStore kv(2);
  kv.publish_delta({.upserts = {{"a", "1"}, {"b", "2"}, {"c", "3"}}});
  const std::uint64_t before = kv.query_count();
  kv.multi_get({"a", "b", "c"});
  EXPECT_EQ(kv.query_count() - before, 3u);
  std::uint64_t shard_sum = 0;
  for (std::size_t s = 0; s < kv.num_shards(); ++s) {
    shard_sum += kv.shard_query_count(s);
  }
  EXPECT_EQ(shard_sum, kv.query_count());
}

// --- reset_to (replication catch-up) ----------------------------------------

TEST(KvSnapshotTest, ResetToReplacesStateAndJumpsVersion) {
  KvStore kv(2);
  kv.publish_delta({.upserts = {{"a", "1"}, {"b", "2"}}});
  kv.publish_delta({.upserts = {{"c", "3"}}});
  ASSERT_EQ(kv.version(), 2u);

  // A restarted replica catches up: full snapshot at a later version.
  KvDelta snapshot;
  snapshot.upserts = {{"a", "10"}, {"d", "40"}};
  EXPECT_EQ(kv.reset_to(snapshot, 7), 7u);
  EXPECT_EQ(kv.version(), 7u);
  EXPECT_EQ(kv.try_get("a").value, "10");
  EXPECT_EQ(kv.try_get("d").value, "40");
  // Keys absent from the snapshot are gone (it is the complete state).
  EXPECT_EQ(kv.try_get("b").status, GetStatus::kMiss);
  EXPECT_EQ(kv.try_get("c").status, GetStatus::kMiss);
  // All shards are up after a reset, even if they were down before.
  for (std::size_t i = 0; i < kv.num_shards(); ++i) {
    EXPECT_TRUE(kv.shard_up(i));
  }
  // Rewinding the version is refused — versions are monotone.
  EXPECT_THROW(kv.reset_to(snapshot, 3), std::invalid_argument);
  // Re-applying at the same version is idempotent catch-up.
  EXPECT_EQ(kv.reset_to(snapshot, 7), 7u);
}

TEST(KvSnapshotTest, ResetToRevivesDownShardWithoutRedoReplay) {
  KvStore kv(2);
  kv.publish_delta({.upserts = {{"a", "1"}}});
  for (std::size_t i = 0; i < kv.num_shards(); ++i) {
    kv.set_shard_up(i, false);
  }
  // Buffered in the redo log.
  kv.publish_delta({.upserts = {{"a", "2"}, {"b", "9"}}});
  KvDelta snapshot;
  snapshot.upserts = {{"a", "2"}, {"b", "9"}};
  kv.reset_to(snapshot, kv.version());
  // The snapshot IS the replayed state; the redo log must not re-apply
  // on a later set_shard_up(true).
  for (std::size_t i = 0; i < kv.num_shards(); ++i) {
    kv.set_shard_up(i, true);
  }
  EXPECT_EQ(kv.try_get("a").value, "2");
  EXPECT_EQ(kv.try_get("b").value, "9");
  EXPECT_EQ(kv.redo_replayed(), 0u);
}

// --- concurrency (run under TSan by ci.sh) ----------------------------------

TEST(KvSnapshotConcurrency, LockFreeReadersUnderPublishStorm) {
  KvStore kv(2);
  constexpr int kKeys = 64;
  static constexpr int kRounds = 200;
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) keys.push_back("k/" + std::to_string(i));

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&kv, &keys, &stop] {
      Version last = 0;
      std::size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const GetResult r = kv.try_get(keys[i++ % keys.size()]);
        if (r.ok()) {
          // Every value a reader can observe is a round number some
          // publish installed — never a torn or freed string.
          const int round = std::stoi(r.value);
          EXPECT_GE(round, 0);
          EXPECT_LT(round, kRounds);
        }
        const Version v = kv.version();
        EXPECT_GE(v, last);  // version is monotone under readers
        last = v;
      }
    });
  }

  for (int round = 0; round < kRounds; ++round) {
    KvDelta delta;
    // Churn a sliding window of keys each round.
    for (int j = 0; j < 8; ++j) {
      delta.upserts.emplace_back(keys[(round * 8 + j) % kKeys],
                                 std::to_string(round));
    }
    kv.publish_delta(delta);
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(kv.version(), static_cast<Version>(kRounds));
}

TEST(KvSnapshotConcurrency, MultiGetCutIsUniformWhileConsistent) {
  // Every publish writes the same round number to all keys, so a
  // consistent multi_get cut must be uniform: observing two different
  // round numbers in one consistent result would be a torn snapshot.
  KvStore kv(4);
  constexpr int kKeys = 32;
  std::vector<std::string> keys;
  KvDelta batch;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back("k/" + std::to_string(i));
    batch.upserts.emplace_back(keys.back(), "0");
  }
  kv.publish_delta(batch);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> consistent_cuts{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const MultiGetResult r = kv.multi_get(keys);
        if (!r.consistent) continue;  // retry budget exhausted: best effort
        consistent_cuts.fetch_add(1, std::memory_order_relaxed);
        ASSERT_EQ(r.entries.size(), keys.size());
        const std::string& first = r.entries.front().value;
        for (const GetResult& e : r.entries) {
          ASSERT_TRUE(e.ok());
          EXPECT_EQ(e.value, first) << "torn cut at version " << r.version;
          EXPECT_LE(e.version, r.version);
        }
      }
    });
  }

  for (int round = 1; round <= 300; ++round) {
    for (auto& kvp : batch.upserts) kvp.second = std::to_string(round);
    kv.publish_delta(batch);
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  // Mid-storm consistent cuts are best-effort on a loaded machine (the
  // seqlock retry budget can be outrun by back-to-back publishes), but
  // once publishes quiesce a cut must succeed and carry the final round.
  const MultiGetResult last = kv.multi_get(keys);
  ASSERT_TRUE(last.consistent);
  EXPECT_EQ(last.version, static_cast<Version>(301));
  for (const GetResult& e : last.entries) EXPECT_EQ(e.value, "300");
  (void)consistent_cuts;
}

TEST(KvSnapshotConcurrency, ShardFlapsWithReadersAndWriters) {
  KvStore kv(2);
  kv.publish_delta({.upserts = {{"stable", "s"}}});
  std::atomic<bool> stop{false};

  std::thread flapper([&] {
    for (int i = 0; i < 200; ++i) {
      kv.set_shard_up(i % 2, false);
      kv.set_shard_up(i % 2, true);
    }
    stop.store(true);
  });
  std::thread writer([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      kv.publish_delta(
          {.upserts = {{"w/" + std::to_string(i % 16), std::to_string(i)}}});
      ++i;
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const GetResult r = kv.try_get("stable");
        // Down shard reads refuse cleanly; they never return torn data.
        if (r.ok()) {
          EXPECT_EQ(r.value, "s");
        }
      }
    });
  }
  flapper.join();
  writer.join();
  for (auto& t : readers) t.join();
  // Every buffered write was replayed by the final recovery.
  EXPECT_EQ(kv.redo_buffered(), kv.redo_replayed());
  EXPECT_EQ(kv.try_get("stable").value, "s");
}

TEST(KvSnapshotConcurrency, PutsAndErasesRaceWithReaders) {
  KvStore kv(4);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&kv, &stop, t] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string key =
            "t" + std::to_string(t) + "/" + std::to_string(i % 32);
        kv.publish_delta({.upserts = {{key, std::to_string(i)}}});
        if (i % 3 == 0) kv.publish_delta({.erases = {key}});
        ++i;
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&kv, &stop, t] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        (void)kv.try_get("t" + std::to_string(t) + "/" +
                         std::to_string(i++ % 32));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& t : workers) t.join();
  for (auto& t : readers) t.join();
}

// --- batched-pull property suite (satellite) --------------------------------

fault::ChaosOptions property_chaos_options() {
  fault::ChaosOptions opt;
  opt.sites = 8;
  opt.duplex_links = 12;
  opt.endpoints_per_site = 2;
  opt.intervals = 8;
  opt.interval_s = 15.0;
  opt.poll_interval_s = 4.0;
  opt.instances_per_agent = 3;
  opt.plan.seed = 21;
  opt.plan.horizon_s = 0.0;
  opt.plan.quiet_tail_s = 45.0;
  opt.plan.shard_crashes = 0;
  opt.plan.link_failures = 0;
  opt.plan.pull_drop_windows = 0;
  opt.plan.stale_windows = 0;
  return opt;
}

// One fault plan per PR-1 fault kind, plus the all-kinds mix: the batched
// pull protocol must be byte-identical to per-key pulls under each.
std::vector<std::pair<std::string, fault::ChaosOptions>>
property_fault_plans() {
  std::vector<std::pair<std::string, fault::ChaosOptions>> plans;
  {
    auto o = property_chaos_options();
    plans.emplace_back("fault-free", o);
  }
  {
    auto o = property_chaos_options();
    o.plan.shard_crashes = 2;
    plans.emplace_back("shard-crashes", o);
  }
  {
    auto o = property_chaos_options();
    o.plan.link_failures = 2;
    plans.emplace_back("link-failures", o);
  }
  {
    auto o = property_chaos_options();
    o.plan.pull_drop_windows = 2;
    plans.emplace_back("pull-drops", o);
  }
  {
    auto o = property_chaos_options();
    o.plan.stale_windows = 2;
    plans.emplace_back("stale-reads", o);
  }
  {
    auto o = property_chaos_options();
    o.plan.seed = 22;
    o.plan.shard_crashes = 2;
    o.plan.link_failures = 1;
    o.plan.pull_drop_windows = 1;
    o.plan.stale_windows = 1;
    plans.emplace_back("all-kinds", o);
  }
  return plans;
}

TEST(BatchedPullPropertyTest, FingerprintMatchesPerKeyUnderEveryFaultPlan) {
  for (const auto& [name, base] : property_fault_plans()) {
    auto per_key = base;
    per_key.batch_pull = false;
    auto batched = base;
    batched.batch_pull = true;
    const auto a = fault::run_chaos(per_key);
    const auto b = fault::run_chaos(batched);
    EXPECT_EQ(a.fingerprint, b.fingerprint) << "plan: " << name;
    EXPECT_EQ(a.event_log, b.event_log) << "plan: " << name;
    EXPECT_EQ(a.violations, b.violations) << "plan: " << name;
    EXPECT_EQ(a.final_version, b.final_version) << "plan: " << name;
    EXPECT_EQ(a.counters.fallbacks_last_good, b.counters.fallbacks_last_good)
        << "plan: " << name;
    EXPECT_EQ(a.counters.publishes, b.counters.publishes) << "plan: " << name;
    // The batched run answered the same pulls with fewer DB queries
    // (pulls count route entries fetched OK, identical across modes).
    EXPECT_EQ(a.counters.pulls, b.counters.pulls) << "plan: " << name;
  }
}

TEST(BatchedPullPropertyTest, StalenessDistributionMatchesPerKey) {
  ctrl::AgentOptions opt;
  opt.poll_interval_s = 5.0;

  auto lags_for = [&opt](bool batch) {
    KvStore kv(4);
    ctrl::InProcessTransport db(&kv);
    ctrl::AgentOptions o = opt;
    o.batch_pull = batch;
    return ctrl::measure_sync_lags(db, /*n_instances=*/240, o,
                                   /*publish_at_s=*/20.0, /*horizon_s=*/60.0,
                                   /*tick_step_s=*/0.5,
                                   /*instances_per_agent=*/4);
  };
  const std::vector<double> per_key = lags_for(false);
  const std::vector<double> batched = lags_for(true);
  ASSERT_EQ(per_key.size(), 240u);
  // Same apply-lag distribution, instance for instance: batching changes
  // how entries are fetched, never when an instance converges.
  EXPECT_EQ(per_key, batched);
}

TEST(BatchedPullPropertyTest, BatchedRunIssuesFewerDbQueries) {
  auto per_key = property_chaos_options();
  auto batched = property_chaos_options();
  batched.batch_pull = true;
  obs::MetricsRegistry ra, rb;
  per_key.metrics = &ra;
  batched.metrics = &rb;
  (void)fault::run_chaos(per_key);
  (void)fault::run_chaos(batched);
  const auto sa = ra.snapshot();
  const auto sb = rb.snapshot();
  const std::uint64_t qa = sa.counters.at("kv.queries");
  const std::uint64_t qb = sb.counters.at("kv.queries");
  EXPECT_GT(qa, 0u);
  // Batched pulls still read one entry per instance (query_count counts
  // keys served), but each host resolves them through multi_get; the
  // multi_get counter proves the batched path actually ran.
  EXPECT_GT(sb.counters.at("kv.multi_gets"), 0u);
  EXPECT_EQ(sa.counters.at("kv.multi_gets"), 0u);
  EXPECT_EQ(qa, qb);  // same logical reads either way
}

}  // namespace
}  // namespace megate

// Unit + integration tests for megate::obs (ISSUE 3 tentpole): registry
// semantics, log-scale histogram bucketing, span nesting, the JSON export
// schema, concurrency (the ObsConcurrency suite runs under TSan in ci.sh)
// and the single-metrics-path parity guarantees — the registry's view of
// ControlCounters / KvStore telemetry is bit-equal to the original
// storage, with no duplicate counting.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "megate/ctrl/kvstore.h"
#include "megate/ctrl/telemetry.h"
#include "megate/fault/chaos.h"
#include "megate/obs/json.h"
#include "megate/obs/metrics.h"
#include "megate/obs/span.h"

namespace {

using namespace megate;
using obs::Histogram;
using obs::Json;
using obs::MetricsRegistry;

TEST(Metrics, CounterAndGaugeBasics) {
  MetricsRegistry reg;
  reg.counter("a").inc();
  reg.counter("a").inc(41);
  reg.gauge("g").set(2.5);
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("a"), 42u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 2.5);
}

TEST(Metrics, HandleIsStable) {
  MetricsRegistry reg;
  obs::Counter& c1 = reg.counter("x");
  obs::Counter& c2 = reg.counter("x");
  EXPECT_EQ(&c1, &c2);  // same name -> same cell, forever
  c1.inc();
  c2.inc();
  EXPECT_EQ(reg.snapshot().counters.at("x"), 2u);
}

TEST(Metrics, HistogramBucketBoundaries) {
  // Bucket 0 holds v <= 1e-9; bucket i holds (1e-9*2^(i-1), 1e-9*2^i].
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1e-9), 0u);
  EXPECT_EQ(Histogram::bucket_index(1.1e-9), 1u);
  EXPECT_EQ(Histogram::bucket_index(2e-9), 1u);
  EXPECT_EQ(Histogram::bucket_index(2.1e-9), 2u);
  // A value above every finite bound lands in the overflow bucket.
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::max()),
            Histogram::kBuckets - 1);
  // upper_bound is the inclusive edge bucket_index assigns by.
  for (std::size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::upper_bound(i)), i);
  }
  EXPECT_TRUE(std::isinf(Histogram::upper_bound(Histogram::kBuckets - 1)));
}

TEST(Metrics, HistogramObserve) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h");
  h.observe(1e-3);
  h.observe(2e-3);
  h.observe(0.5);
  auto snap = reg.snapshot();
  const auto& hs = snap.histograms.at("h");
  EXPECT_EQ(hs.count, 3u);
  EXPECT_DOUBLE_EQ(hs.sum, 1e-3 + 2e-3 + 0.5);
  EXPECT_DOUBLE_EQ(hs.min, 1e-3);
  EXPECT_DOUBLE_EQ(hs.max, 0.5);
  std::uint64_t bucket_total = 0;
  for (const auto& [ub, n] : hs.buckets) bucket_total += n;
  EXPECT_EQ(bucket_total, 3u);
}

TEST(Metrics, ExposedCounterReadsLiveStorage) {
  MetricsRegistry reg;
  std::uint64_t cell = 7;
  reg.expose_counter("ext", [&cell]() { return cell; });
  EXPECT_EQ(reg.snapshot().counters.at("ext"), 7u);
  cell = 9;  // no re-registration needed: read at snapshot time
  EXPECT_EQ(reg.snapshot().counters.at("ext"), 9u);
}

TEST(Metrics, ExposedCounterReRegistrationReplaces) {
  // The freeze pattern: a short-lived owner re-binds its exported names to
  // value-capturing closures before dying, so snapshots never read freed
  // memory.
  MetricsRegistry reg;
  {
    std::uint64_t local = 123;
    reg.expose_counter("frozen", [&local]() { return local; });
    const std::uint64_t final_value = local;
    reg.expose_counter("frozen", [final_value]() { return final_value; });
  }
  EXPECT_EQ(reg.snapshot().counters.at("frozen"), 123u);
}

TEST(Spans, NestingBuildsPath) {
  MetricsRegistry reg;
  {
    obs::Span outer(reg, "outer");
    { obs::Span inner(reg, "inner"); }
  }
  auto recs = reg.tracer().records();
  ASSERT_EQ(recs.size(), 2u);
  // Inner closes first.
  EXPECT_EQ(recs[0].path, "outer/inner");
  EXPECT_EQ(recs[0].depth, 1u);
  EXPECT_EQ(recs[1].path, "outer");
  EXPECT_EQ(recs[1].depth, 0u);
  EXPECT_GE(recs[1].duration_s, recs[0].duration_s);
  // Finished spans also feed span.<path> histograms.
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.histograms.at("span.outer/inner").count, 1u);
  EXPECT_EQ(snap.histograms.at("span.outer").count, 1u);
}

TEST(Spans, BufferOverflowDropsAndCounts) {
  MetricsRegistry reg;
  obs::SpanTracer tracer(&reg, /*max_records=*/4);
  for (int i = 0; i < 10; ++i) {
    obs::Span s(tracer, "s");
  }
  EXPECT_EQ(tracer.records().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(Spans, WorkerThreadsStartFreshPaths) {
  MetricsRegistry reg;
  {
    obs::Span outer(reg, "outer");
    std::thread worker([&reg]() { obs::Span s(reg, "work"); });
    worker.join();
  }
  bool found_rootless = false;
  for (const auto& r : reg.tracer().records()) {
    if (r.path == "work") found_rootless = r.depth == 0;
  }
  EXPECT_TRUE(found_rootless) << "worker span must not inherit the "
                                 "spawning thread's stack";
}

TEST(MetricsJson, ExportValidatesAgainstSchema) {
  MetricsRegistry reg;
  reg.counter("c").inc(3);
  reg.gauge("g").set(1.25);
  reg.histogram("h").observe(0.25);
  { obs::Span s(reg, "unit"); }
  Json extra = Json::object();
  extra.set("note", Json("hello"));
  const Json doc = obs::metrics_to_json(reg.snapshot(), "test", extra);
  EXPECT_TRUE(obs::validate_metrics_json(doc).empty());
  const Json* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  // Parse(dump) round-trips to an equally valid document.
  auto reparsed = Json::parse(doc.dump(2));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(obs::validate_metrics_json(*reparsed).empty());
  const Json* counters = reparsed->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("c"), nullptr);
}

TEST(MetricsJson, ValidatorRejectsBrokenDocuments) {
  EXPECT_FALSE(obs::validate_metrics_json(Json::object()).empty());
  Json wrong_schema = Json::object();
  wrong_schema.set("schema", Json("nonsense/9"));
  EXPECT_FALSE(obs::validate_metrics_json(wrong_schema).empty());
  Json bad_counters = Json::object();
  bad_counters.set("schema", Json(obs::kMetricsSchema));
  bad_counters.set("source", Json("t"));
  bad_counters.set("counters", Json::array());  // must be an object
  EXPECT_FALSE(obs::validate_metrics_json(bad_counters).empty());
}

TEST(MetricsJson, WriteMetricsJsonToFile) {
  MetricsRegistry reg;
  reg.counter("c").inc();
  const std::string path = "obs_test_out.json";
  ASSERT_TRUE(obs::write_metrics_json(reg, "unit-test", path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  auto doc = Json::parse(buf.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(obs::validate_metrics_json(*doc).empty());
  const Json* source = doc->find("source");
  ASSERT_NE(source, nullptr);
  std::remove(path.c_str());
}

// --- ObsConcurrency: exercised under TSan by ci.sh --------------------

TEST(ObsConcurrency, ParallelIncrementsAreLossless) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIncs = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg]() {
      obs::Counter& c = reg.counter("shared");
      for (int i = 0; i < kIncs; ++i) c.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.snapshot().counters.at("shared"),
            static_cast<std::uint64_t>(kThreads) * kIncs);
}

TEST(ObsConcurrency, SnapshotRacesRecordingCleanly) {
  // Writers hammer counters/histograms/spans while a reader snapshots:
  // no torn state, snapshot totals only ever grow.
  MetricsRegistry reg;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&]() {
      obs::Counter& c = reg.counter("events");
      Histogram& h = reg.histogram("lat");
      while (!stop.load(std::memory_order_relaxed)) {
        c.inc();
        h.observe(1e-6);
        obs::Span s(reg, "tick");
      }
    });
  }
  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    auto snap = reg.snapshot();
    auto it = snap.counters.find("events");
    if (it != snap.counters.end()) {
      EXPECT_GE(it->second, last);
      last = it->second;
      auto hs = snap.histograms.find("lat");
      if (hs != snap.histograms.end()) {
        EXPECT_LE(hs->second.count, it->second + 4);  // writers mid-loop
      }
    }
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_TRUE(obs::validate_metrics_json(
                  obs::metrics_to_json(reg.snapshot(), "tsan"))
                  .empty());
}

// --- Parity: one metrics path, no duplicate counting -------------------

TEST(MetricsParity, ControlCountersExposureIsBitEqual) {
  // Every ControlCounters cell, each set to a distinct value, so a field
  // exported under another field's name shows.
  const std::pair<const char*, std::uint64_t ctrl::ControlCounters::*>
      fields[] = {
          {"polls", &ctrl::ControlCounters::polls},
          {"pulls", &ctrl::ControlCounters::pulls},
          {"pull_drops", &ctrl::ControlCounters::pull_drops},
          {"pull_retries", &ctrl::ControlCounters::pull_retries},
          {"shard_unavailable", &ctrl::ControlCounters::shard_unavailable},
          {"stale_version_reads",
           &ctrl::ControlCounters::stale_version_reads},
          {"fallbacks_last_good",
           &ctrl::ControlCounters::fallbacks_last_good},
          {"publishes", &ctrl::ControlCounters::publishes},
          {"publish_upserts", &ctrl::ControlCounters::publish_upserts},
          {"publish_erases", &ctrl::ControlCounters::publish_erases},
          {"publish_delta_bytes",
           &ctrl::ControlCounters::publish_delta_bytes},
      };
  MetricsRegistry reg;
  ctrl::ControlCounters counters;
  ctrl::register_counters(reg, counters, "ctrl");
  // Set after registration: the registry reads the live fields.
  std::uint64_t value = 3;
  for (const auto& [name, member] : fields) counters.*member = value++;
  const auto snap = reg.snapshot();
  std::size_t exported = 0;
  for (const auto& [name, v] : snap.counters) {
    exported += name.rfind("ctrl.", 0) == 0;
  }
  EXPECT_EQ(exported, std::size(fields));  // the whole struct, no extras
  for (const auto& [name, member] : fields) {
    EXPECT_EQ(snap.counters.at(std::string("ctrl.") + name),
              counters.*member)
        << name;
  }
}

TEST(MetricsParity, KvStoreShardQueriesSumToTotal) {
  MetricsRegistry reg;
  ctrl::KvStore kv(4);
  kv.bind_metrics(reg, "kv");
  kv.publish_delta({.upserts = {{"path/1", "a"}, {"path/2", "b"}}});
  for (int i = 0; i < 257; ++i) {
    (void)kv.try_get("path/" + std::to_string(i % 5));
  }
  auto snap = reg.snapshot();
  std::uint64_t shard_sum = 0;
  for (std::size_t s = 0; s < kv.num_shards(); ++s) {
    shard_sum +=
        snap.counters.at("kv.shard" + std::to_string(s) + ".queries");
    EXPECT_EQ(snap.counters.at("kv.shard" + std::to_string(s) + ".queries"),
              kv.shard_query_count(s));
  }
  EXPECT_EQ(shard_sum, kv.query_count());
  EXPECT_EQ(snap.counters.at("kv.queries"), kv.query_count());
  EXPECT_EQ(snap.gauges.at("kv.keys"), static_cast<double>(kv.size()));
}

TEST(MetricsParity, ChaosRunFreezesExactFinalTotals) {
  // End-to-end: a chaos run with a registry attached must (a) leave the
  // deterministic fingerprint untouched and (b) freeze ctrl.*/kv.* totals
  // that are bit-equal to the report's own counters — the "no duplicate
  // counting" acceptance check of ISSUE 3.
  fault::ChaosOptions opt;
  opt.sites = 6;
  opt.duplex_links = 9;
  opt.endpoints_per_site = 2;
  opt.intervals = 6;
  opt.interval_s = 10.0;
  opt.poll_interval_s = 3.0;
  opt.plan.seed = 5;
  opt.plan.horizon_s = 0.0;
  opt.plan.quiet_tail_s = 30.0;
  opt.plan.shard_crashes = 1;
  opt.plan.link_failures = 1;

  const fault::ChaosReport bare = fault::run_chaos(opt);

  MetricsRegistry reg;
  opt.metrics = &reg;
  const fault::ChaosReport observed = fault::run_chaos(opt);

  EXPECT_EQ(bare.fingerprint, observed.fingerprint)
      << "metrics wiring must not perturb the deterministic control loop";

  auto snap = reg.snapshot();
  MetricsRegistry expected;
  ctrl::register_counters(expected, observed.counters);
  for (const auto& [name, v] : expected.snapshot().counters) {
    EXPECT_EQ(snap.counters.at(name), v) << name;
  }
  // Shard query counts were frozen at run end and sum to the total.
  std::uint64_t shard_sum = 0;
  for (std::size_t s = 0; s < opt.kv_shards; ++s) {
    shard_sum +=
        snap.counters.at("kv.shard" + std::to_string(s) + ".queries");
  }
  EXPECT_EQ(shard_sum, snap.counters.at("kv.queries"));
  // Solver instruments ran during the run.
  EXPECT_GT(snap.counters.at("chaos.resolves"), 0u);
  EXPECT_GE(snap.histograms.at("ctrl.agent.pull.seconds").count, 1u);
  // And the whole document exports cleanly.
  EXPECT_TRUE(obs::validate_metrics_json(
                  obs::metrics_to_json(snap, "parity-test"))
                  .empty());
}

TEST(MetricsParity, ChaosFreezeCarriesEveryOwnerBinding) {
  // The frozen export of an in-process chaos run carries every name the
  // owners' own bindings expose: KvStore::bind_metrics and
  // ctrl::register_counters.
  fault::ChaosOptions opt;
  opt.sites = 6;
  opt.duplex_links = 9;
  opt.endpoints_per_site = 2;
  opt.intervals = 3;
  opt.interval_s = 10.0;
  opt.plan.seed = 5;
  MetricsRegistry reg;
  opt.metrics = &reg;
  (void)fault::run_chaos(opt);
  const auto snap = reg.snapshot();

  MetricsRegistry owners;
  ctrl::KvStore kv(opt.kv_shards);
  kv.bind_metrics(owners);
  ctrl::ControlCounters counters;
  ctrl::register_counters(owners, counters);
  const auto names = owners.snapshot();
  for (const auto& [name, v] : names.counters) {
    EXPECT_TRUE(snap.counters.count(name)) << name;
  }
  for (const auto& [name, v] : names.gauges) {
    EXPECT_TRUE(snap.gauges.count(name)) << name;
  }
  EXPECT_TRUE(snap.gauges.count("kv.snapshot.pending"));
}

}  // namespace

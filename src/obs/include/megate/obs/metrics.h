#pragma once
// megate::obs — the unified observability layer (ISSUE 3 tentpole).
//
// One process-wide metrics path: every subsystem (solver stages, KV store
// shards, endpoint agents, the chaos loop, the eBPF-analog host stack)
// records into a MetricsRegistry, and megate_cli / the bench targets
// export one versioned JSON document (see json.h) from it.
//
// Design constraints, in order:
//   1. Hot paths stay lock-free: Counter/Gauge/Histogram handles are
//      plain atomics with relaxed ordering; the registry mutex guards
//      only name registration and snapshotting, never increments.
//   2. Existing single-writer telemetry (ctrl::ControlCounters, the
//      te::IncrementalStats aggregates) is *exposed*, not duplicated:
//      expose_counter/expose_gauge register a read callback evaluated at
//      snapshot time against the original storage, so there is exactly
//      one count per event (the parity tests in tests/obs_test.cpp hold
//      the two views bit-equal).
//   3. Histograms are log-scale (base-2 buckets from 1 ns), so one shape
//      covers nanosecond span durations and million-entry map sizes.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace megate::obs {

class SpanTracer;
struct SpanRecord;

/// Monotonically increasing event count. Handles returned by
/// MetricsRegistry::counter stay valid for the registry's lifetime.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (map occupancy, ratios, ...).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-scale histogram: bucket 0 holds values <= 1e-9, bucket i holds
/// (1e-9 * 2^(i-1), 1e-9 * 2^i], the last bucket is the +inf overflow.
/// Covers ~1 ns .. ~9.2e9 s of duration — or, read as plain numbers,
/// anything up to ~9.2e18 — with <= 2x relative bucket error.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;
  static constexpr double kFirstUpperBound = 1e-9;

  void observe(double v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double min() const noexcept { return min_.load(std::memory_order_relaxed); }
  double max() const noexcept { return max_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket `i` (+inf for the last bucket).
  static double upper_bound(std::size_t i) noexcept;
  /// Bucket a value lands in.
  static std::size_t bucket_index(double v) noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Point-in-time copy of one histogram, for export.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// (inclusive upper bound, count) for every non-empty bucket.
  std::vector<std::pair<double, std::uint64_t>> buckets;
};

/// Point-in-time copy of a whole registry (export boundary).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::vector<SpanRecord> spans;
  std::uint64_t spans_dropped = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named instrument. The returned reference is
  /// stable for the registry's lifetime; hot paths should call this once
  /// and keep the handle.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Registers telemetry that lives elsewhere (e.g. a ControlCounters
  /// field): `read` is evaluated at snapshot time against the original
  /// storage, so the value is never double-counted. Re-registering a name
  /// replaces the previous callback (re-binding after a reset).
  void expose_counter(const std::string& name,
                      std::function<std::uint64_t()> read);
  void expose_gauge(const std::string& name, std::function<double()> read);

  /// The registry's span tracer (see span.h). Finished spans also feed
  /// the histogram "span.<path>" on this registry.
  SpanTracer& tracer() noexcept { return *tracer_; }
  const SpanTracer& tracer() const noexcept { return *tracer_; }

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::function<std::uint64_t()>> exposed_counters_;
  std::map<std::string, std::function<double()>> exposed_gauges_;
  std::unique_ptr<SpanTracer> tracer_;
};

}  // namespace megate::obs

#include "megate/obs/metrics.h"

#include <cmath>
#include <limits>

#include "megate/obs/span.h"

namespace megate::obs {
namespace {

/// Relaxed CAS accumulate for atomic doubles (fetch_add on atomic<double>
/// is C++20 but still patchy across standard libraries).
void atomic_add(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::size_t Histogram::bucket_index(double v) noexcept {
  if (!(v > kFirstUpperBound)) return 0;  // <= 1e-9, NaN, negatives
  // v = m * 2^e with m in [0.5, 1): v <= 1e-9 * 2^i  <=>  i >= log2(v/1e-9).
  const double scaled = v / kFirstUpperBound;
  if (!std::isfinite(scaled)) return kBuckets - 1;  // v/1e-9 overflowed
  int e = 0;
  const double m = std::frexp(scaled, &e);
  // frexp: v/1e-9 = m * 2^e with m in [0.5, 1). Bucket i covers
  // (1e-9 * 2^(i-1), 1e-9 * 2^i], so a value exactly on a boundary
  // (m == 0.5) belongs to the bucket below e.
  const int idx = m == 0.5 ? e - 1 : e;
  const std::size_t i = idx > 0 ? static_cast<std::size_t>(idx) : 1;
  return i < kBuckets ? i : kBuckets - 1;
}

double Histogram::upper_bound(std::size_t i) noexcept {
  if (i + 1 >= kBuckets) return std::numeric_limits<double>::infinity();
  return kFirstUpperBound * std::ldexp(1.0, static_cast<int>(i));
}

void Histogram::observe(double v) noexcept {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t n =
      count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  if (n == 0) {
    // First sample initializes min/max; racing observers fix it up below.
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
  }
  atomic_min(min_, v);
  atomic_max(max_, v);
}

MetricsRegistry::MetricsRegistry()
    : tracer_(std::make_unique<SpanTracer>(this)) {}

MetricsRegistry::~MetricsRegistry() = default;

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::expose_counter(const std::string& name,
                                     std::function<std::uint64_t()> read) {
  std::lock_guard lock(mu_);
  exposed_counters_[name] = std::move(read);
}

void MetricsRegistry::expose_gauge(const std::string& name,
                                   std::function<double()> read) {
  std::lock_guard lock(mu_);
  exposed_gauges_[name] = std::move(read);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard lock(mu_);
    for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
    for (const auto& [name, read] : exposed_counters_) {
      snap.counters[name] = read();
    }
    for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
    for (const auto& [name, read] : exposed_gauges_) {
      snap.gauges[name] = read();
    }
    for (const auto& [name, h] : histograms_) {
      HistogramSnapshot hs;
      hs.count = h->count();
      hs.sum = h->sum();
      hs.min = h->min();
      hs.max = h->max();
      for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
        const std::uint64_t n = h->bucket_count(i);
        if (n > 0) hs.buckets.emplace_back(Histogram::upper_bound(i), n);
      }
      snap.histograms[name] = std::move(hs);
    }
  }
  // Spans are buffered under the tracer's own lock.
  snap.spans = tracer_->records();
  snap.spans_dropped = tracer_->dropped();
  return snap;
}

}  // namespace megate::obs

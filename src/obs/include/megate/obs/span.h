#pragma once
// Scoped span tracing with thread-aware nesting.
//
// A Span is an RAII timer: construction pushes a frame onto the calling
// thread's span stack, destruction pops it and records a SpanRecord whose
// `path` joins the names of the enclosing spans *of the same tracer* on
// that thread ("te.solve/stage1"). Spans opened on worker threads (e.g.
// inside a ThreadPool::parallel_for body) start a fresh path on their
// thread — nesting is per-thread by design, mirroring what a real tracer
// sees.
//
// Finished spans land in a bounded in-memory buffer (overflow is counted,
// never blocks) and additionally feed the owning registry's histogram
// "span.<path>", so aggregate timing survives even when the raw span
// buffer wraps.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "megate/obs/metrics.h"

namespace megate::obs {

/// One finished span.
struct SpanRecord {
  std::string path;        ///< "outer/inner", names joined per thread
  std::uint32_t thread = 0;  ///< stable small per-thread index
  std::uint32_t depth = 0;   ///< nesting depth on its thread (0 = root)
  double start_s = 0.0;      ///< offset from the tracer's epoch
  double duration_s = 0.0;
};

class SpanTracer {
 public:
  explicit SpanTracer(MetricsRegistry* registry,
                      std::size_t max_records = 8192);

  /// Seconds since this tracer was constructed (steady clock).
  double now_s() const noexcept;

  /// Appends a finished span (called by ~Span; also usable directly for
  /// pre-measured intervals). Thread-safe; drops and counts on overflow.
  void record(SpanRecord rec);

  std::vector<SpanRecord> records() const;
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::size_t max_records() const noexcept { return max_records_; }

 private:
  MetricsRegistry* registry_;  ///< may be null (standalone tracer)
  std::chrono::steady_clock::time_point epoch_;
  std::size_t max_records_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII scope: times from construction to destruction and records into
/// the tracer. Must be destroyed on the thread that created it (it is a
/// stack frame, not a handle).
class Span {
 public:
  Span(SpanTracer& tracer, std::string_view name);
  /// Convenience: spans the registry's own tracer.
  Span(MetricsRegistry& registry, std::string_view name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTracer* tracer_;
  double start_s_;
};

}  // namespace megate::obs

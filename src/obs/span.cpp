#include "megate/obs/span.h"

#include <atomic>

namespace megate::obs {
namespace {

/// Stable, small per-thread index (0, 1, 2, ... in first-use order).
std::uint32_t thread_index() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// One open span on this thread's stack.
struct Frame {
  const SpanTracer* tracer;
  std::string name;
};

thread_local std::vector<Frame> tls_stack;

/// Joins the names of this thread's open frames belonging to `tracer`
/// (the innermost frame is expected to already be on the stack).
std::string current_path(const SpanTracer* tracer) {
  std::string path;
  for (const Frame& f : tls_stack) {
    if (f.tracer != tracer) continue;
    if (!path.empty()) path += '/';
    path += f.name;
  }
  return path;
}

std::uint32_t current_depth(const SpanTracer* tracer) noexcept {
  std::uint32_t depth = 0;
  for (const Frame& f : tls_stack) {
    if (f.tracer == tracer) ++depth;
  }
  return depth > 0 ? depth - 1 : 0;
}

}  // namespace

SpanTracer::SpanTracer(MetricsRegistry* registry, std::size_t max_records)
    : registry_(registry),
      epoch_(std::chrono::steady_clock::now()),
      max_records_(max_records) {}

double SpanTracer::now_s() const noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void SpanTracer::record(SpanRecord rec) {
  if (registry_ != nullptr) {
    registry_->histogram("span." + rec.path).observe(rec.duration_s);
  }
  std::lock_guard lock(mu_);
  if (records_.size() >= max_records_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  records_.push_back(std::move(rec));
}

std::vector<SpanRecord> SpanTracer::records() const {
  std::lock_guard lock(mu_);
  return records_;
}

Span::Span(SpanTracer& tracer, std::string_view name)
    : tracer_(&tracer), start_s_(tracer.now_s()) {
  tls_stack.push_back(Frame{tracer_, std::string(name)});
}

Span::Span(MetricsRegistry& registry, std::string_view name)
    : Span(registry.tracer(), name) {}

Span::~Span() {
  SpanRecord rec;
  rec.path = current_path(tracer_);
  rec.thread = thread_index();
  rec.depth = current_depth(tracer_);
  rec.start_s = start_s_;
  rec.duration_s = tracer_->now_s() - start_s_;
  // RAII guarantees LIFO per thread: the innermost frame is ours.
  tls_stack.pop_back();
  tracer_->record(std::move(rec));
}

}  // namespace megate::obs

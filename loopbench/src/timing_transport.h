#pragma once
// A ctrl::KvTransport decorator: forwards every call to the real transport
// (the in-process store or a TCP shard client) and opens a span around it.
// The controller and the agents talk to the TE database only through
// this seam, so the spans split publish and pull time into the store's
// share and the caller's own share without touching src/ctrl or src/net.
//
// It also digests every published delta, so the benchmark can fingerprint
// the plan sequence it shipped.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "megate/ctrl/transport.h"
#include "trace.h"

namespace loopbench {

/// FNV-1a over a byte string, continuing from `h`.
inline std::uint64_t fnv1a(std::uint64_t h, const std::string& s) noexcept {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

class TimingTransport final : public megate::ctrl::KvTransport {
 public:
  TimingTransport(megate::ctrl::KvTransport* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  megate::ctrl::Version version() override {
    auto s = tracer_->span(SpanName::kVersion);
    return inner_->version();
  }
  megate::ctrl::GetResult get(const std::string& key) override {
    auto s = tracer_->span(SpanName::kMultiGet);
    return inner_->get(key);
  }
  megate::ctrl::MultiGetResult multi_get(
      const std::vector<std::string>& keys) override {
    auto s = tracer_->span(SpanName::kMultiGet);
    return inner_->multi_get(keys);
  }
  megate::ctrl::Version publish(
      const std::vector<std::pair<std::string, std::string>>& batch)
      override {
    megate::ctrl::KvDelta delta;
    delta.upserts = batch;
    return publish_delta(delta);
  }
  megate::ctrl::Version publish_delta(
      const megate::ctrl::KvDelta& delta) override {
    last_delta_digest_ = digest(delta);
    auto s = tracer_->span(SpanName::kPublishDelta);
    return inner_->publish_delta(delta);
  }
  void put(const std::string& key, std::string value) override {
    inner_->put(key, std::move(value));
  }
  std::size_t num_shards() const override { return inner_->num_shards(); }
  std::size_t shard_index(const std::string& key) const override {
    return inner_->shard_index(key);
  }
  void set_shard_up(std::size_t shard, bool up) override {
    inner_->set_shard_up(shard, up);
  }
  bool shard_up(std::size_t shard) const override {
    return inner_->shard_up(shard);
  }
  const char* name() const noexcept override { return inner_->name(); }

  /// Order-insensitive digest of the most recent published delta.
  std::uint64_t last_delta_digest() const noexcept {
    return last_delta_digest_;
  }

 private:
  static std::uint64_t digest(const megate::ctrl::KvDelta& delta) {
    // Sum of per-entry hashes: the controller builds deltas from hash
    // maps, so only the set of entries is part of the plan.
    std::uint64_t sum = 0;
    for (const auto& [key, value] : delta.upserts) {
      sum += fnv1a(fnv1a(0xCBF29CE484222325ULL, key) ^ 0x55, value);
    }
    for (const std::string& key : delta.erases) {
      sum += fnv1a(0x84222325CBF29CE4ULL, key);
    }
    return sum;
  }

  megate::ctrl::KvTransport* inner_;
  Tracer* tracer_;
  std::uint64_t last_delta_digest_ = 0;
};

}  // namespace loopbench

#include "megate/net/tcp_transport.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

namespace megate::net {

namespace {
/// Seqlock-style retry budget, matching KvStore::multi_get.
constexpr int kMultiGetAttempts = 16;
}  // namespace

TcpKvTransport::TcpKvTransport(TcpTransportOptions options)
    : options_(std::move(options)) {
  if (options_.ports.empty()) {
    throw std::invalid_argument("TcpKvTransport needs at least one shard");
  }
  channels_.reserve(options_.ports.size());
  for (std::size_t i = 0; i < options_.ports.size(); ++i) {
    ChannelOptions ch;
    ch.port = options_.ports[i];
    ch.connect_timeout_ms = options_.connect_timeout_ms;
    ch.request_timeout_ms = options_.request_timeout_ms;
    ch.backoff_initial_ms = options_.backoff_initial_ms;
    ch.backoff_cap_ms = options_.backoff_cap_ms;
    ch.role = options_.role;
    ch.peer_name = options_.peer_name;
    channels_.push_back(std::make_unique<ShardChannel>(ch));
  }
  admin_up_.assign(channels_.size(), true);
}

TcpKvTransport::~TcpKvTransport() = default;

std::size_t TcpKvTransport::shard_index(const std::string& key) const {
  // Must match KvStore's placement: std::hash % shard count.
  return std::hash<std::string>{}(key) % channels_.size();
}

ctrl::Version TcpKvTransport::version() {
  if (options_.role == HelloMsg::kRoleController) {
    // The controller transport is the single writer: its own counter is
    // the global version, no round trip needed.
    return self_version_;
  }
  const std::size_t n = channels_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = (preferred_ + i) % n;
    std::string payload;
    if (!channels_[idx]->request(FrameType::kVersionReq, {},
                                 FrameType::kVersionResp, &payload)) {
      continue;
    }
    VersionRespMsg resp;
    if (!VersionRespMsg::decode(payload, &resp)) continue;
    preferred_ = idx;  // stick with a responsive server
    self_version_ = std::max(self_version_, resp.version);
    return self_version_;
  }
  // Every server unreachable: the cached high-water mark is still a
  // valid (if possibly stale) lower bound, like a cut-off agent's view.
  return self_version_;
}

ctrl::GetResult TcpKvTransport::get(const std::string& key) {
  ctrl::MultiGetResult batch = multi_get({key});
  ctrl::GetResult r = std::move(batch.entries.front());
  return r;
}

ctrl::MultiGetResult TcpKvTransport::multi_get(
    const std::vector<std::string>& keys) {
  ctrl::MultiGetResult result;
  result.entries.resize(keys.size());

  // Group request indices per shard and encode each shard's request once;
  // the retry loop resends the same payloads.
  const std::size_t n = channels_.size();
  std::vector<std::vector<std::size_t>> by_shard(n);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    by_shard[shard_index(keys[i])].push_back(i);
  }
  std::vector<std::string> requests(n);
  for (std::size_t s = 0; s < n; ++s) {
    if (by_shard[s].empty()) continue;
    MultiGetReqMsg req;
    req.keys.reserve(by_shard[s].size());
    for (std::size_t i : by_shard[s]) req.keys.push_back(keys[i]);
    requests[s] = req.encode();
  }

  std::vector<std::uint32_t> ids(n);
  std::vector<bool> sent(n);
  for (int attempt = 0; attempt < kMultiGetAttempts; ++attempt) {
    // The first cut reuses the high-water version the caller's version()
    // poll just cached; only an empty cache or a race pays a fresh round
    // trip. Any cut is safe: a shard is accepted only at exactly v0.
    const ctrl::Version v0 =
        attempt == 0 && self_version_ != 0 ? self_version_ : version();
    result.version = v0;
    result.consistent = true;
    const auto mark_unavailable = [&](std::size_t s) {
      for (std::size_t i : by_shard[s]) {
        result.entries[i] = ctrl::GetResult{};
        result.entries[i].status = ctrl::GetStatus::kUnavailable;
        result.entries[i].version = v0;
        ++unavailable_;
      }
    };

    // Pipelined: every touched shard's request goes out before any
    // response is awaited, so the shards serve the read concurrently.
    for (std::size_t s = 0; s < n; ++s) {
      sent[s] = !by_shard[s].empty() &&
                channels_[s]->send_request(FrameType::kMultiGetReq,
                                           requests[s], &ids[s]);
      if (!by_shard[s].empty() && !sent[s]) mark_unavailable(s);
    }
    // Await every in-flight response, even after a race, so no channel
    // is left with a response the next request would have to skip.
    bool raced = false;
    for (std::size_t s = 0; s < n; ++s) {
      if (!sent[s]) continue;
      std::string payload;
      MultiGetRespMsg resp;
      if (!channels_[s]->await_reply(ids[s], FrameType::kMultiGetResp,
                                     &payload) ||
          !MultiGetRespMsg::decode(payload, &resp) ||
          resp.entries.size() != by_shard[s].size()) {
        mark_unavailable(s);
        continue;
      }
      if (raced) continue;  // draining: this attempt is re-cut anyway
      if (resp.version > v0) {
        // A publish landed between our version cut and this shard read —
        // the exact race KvStore's seqlock retry handles. Re-cut.
        raced = true;
        continue;
      }
      if (resp.version < v0) {
        // Behind the cut: the server missed publishes (it is down or
        // recovering in wall-clock terms). Its values would be a stale
        // read at v0, so they are refused like a down shard's.
        mark_unavailable(s);
        continue;
      }
      for (std::size_t j = 0; j < by_shard[s].size(); ++j) {
        ctrl::GetResult& r = result.entries[by_shard[s][j]];
        r.status = static_cast<ctrl::GetStatus>(resp.entries[j].status);
        r.value = std::move(resp.entries[j].value);
        // The whole batch is reported at the cut version, exactly like
        // KvStore::multi_get.
        r.version = v0;
      }
    }
    if (!raced) return result;
    if (attempt == kMultiGetAttempts - 1) {
      result.consistent = false;  // budget exhausted: best-effort read
    }
  }
  return result;
}

ctrl::Version TcpKvTransport::publish_delta(const ctrl::KvDelta& delta) {
  const ctrl::Version new_version = self_version_ + 1;
  // Mirror first: the mirror at new_version is the snapshot source if
  // any server answers kNeedResync during this very replication.
  for (const auto& [key, value] : delta.upserts) table_[key] = value;
  for (const std::string& key : delta.erases) table_.erase(key);
  replicate(delta, new_version);
  self_version_ = new_version;
  return new_version;
}

void TcpKvTransport::replicate(const ctrl::KvDelta& delta,
                               ctrl::Version version) {
  const std::size_t n = channels_.size();
  std::vector<PublishDeltaReqMsg> reqs(n);
  for (const auto& [key, value] : delta.upserts) {
    reqs[shard_index(key)].delta.upserts.emplace_back(key, value);
  }
  for (const std::string& key : delta.erases) {
    reqs[shard_index(key)].delta.erases.push_back(key);
  }
  // Every server gets every version — an empty sub-delta still bumps the
  // shard's local version, keeping it contiguous with the global one. A
  // server that cannot be reached simply misses the version; its next
  // contact reports a gap (kNeedResync) or goes through resync_shard.
  // Pipelined: all servers receive their share before any response is
  // awaited, so they apply the publish concurrently.
  std::vector<std::uint32_t> ids(n);
  std::vector<bool> sent(n);
  for (std::size_t s = 0; s < n; ++s) {
    reqs[s].version = version;
    sent[s] = channels_[s]->send_request(FrameType::kPublishDeltaReq,
                                         reqs[s].encode(), &ids[s]);
    if (!sent[s]) ++unavailable_;
  }
  for (std::size_t s = 0; s < n; ++s) {
    if (sent[s]) finish_publish(s, ids[s], version, /*snapshot=*/false);
  }
}

ctrl::KvDelta TcpKvTransport::shard_snapshot(std::size_t shard) const {
  ctrl::KvDelta snap;
  for (const auto& [key, value] : table_) {
    if (shard_index(key) == shard) snap.upserts.emplace_back(key, value);
  }
  // Deterministic order (the mirror map iterates in hash order).
  std::sort(snap.upserts.begin(), snap.upserts.end());
  return snap;
}

bool TcpKvTransport::send_publish(std::size_t shard,
                                  const ctrl::KvDelta& delta,
                                  ctrl::Version version, bool snapshot) {
  PublishDeltaReqMsg req;
  req.version = version;
  req.snapshot = snapshot;
  req.delta = delta;
  std::uint32_t id = 0;
  if (!channels_[shard]->send_request(FrameType::kPublishDeltaReq,
                                      req.encode(), &id)) {
    ++unavailable_;
    return false;
  }
  return finish_publish(shard, id, version, snapshot);
}

bool TcpKvTransport::finish_publish(std::size_t shard, std::uint32_t id,
                                    ctrl::Version version, bool snapshot) {
  std::string payload;
  PublishDeltaRespMsg resp;
  if (!channels_[shard]->await_reply(id, FrameType::kPublishDeltaResp,
                                     &payload) ||
      !PublishDeltaRespMsg::decode(payload, &resp)) {
    ++unavailable_;
    return false;
  }
  switch (resp.status) {
    case PublishStatus::kApplied:
      return true;
    case PublishStatus::kStale:
      // Duplicate delivery — already applied, which is success.
      return true;
    case PublishStatus::kNeedResync: {
      if (snapshot) return false;  // a snapshot can't gap; give up
      return send_publish(shard, shard_snapshot(shard), version,
                          /*snapshot=*/true);
    }
  }
  return false;
}

void TcpKvTransport::set_shard_up(std::size_t shard, bool up) {
  admin_up_[shard] = up;
  SetShardUpReqMsg req;
  req.up = up;
  std::string payload;
  if (!channels_[shard]->request(FrameType::kSetShardUpReq, req.encode(),
                                 FrameType::kSetShardUpResp, &payload)) {
    ++unavailable_;
  }
}

bool TcpKvTransport::shard_up(std::size_t shard) const {
  return admin_up_[shard] &&
         channels_[shard]->state() != ShardChannel::State::kUnreachable;
}

void TcpKvTransport::set_reachable(std::size_t shard, bool reachable) {
  channels_[shard]->set_reachable(reachable);
}

bool TcpKvTransport::resync_shard(std::size_t shard) {
  channels_[shard]->set_reachable(true);
  return send_publish(shard, shard_snapshot(shard), self_version_,
                      /*snapshot=*/true);
}

void TcpKvTransport::bind_metrics(obs::MetricsRegistry& registry,
                                  const std::string& prefix) const {
  const auto sum_stat =
      [this](std::uint64_t ShardChannel::Stats::* field) {
        std::uint64_t total = 0;
        for (const auto& ch : channels_) total += ch->stats().*field;
        return total;
      };
  registry.expose_counter(prefix + ".connects", [sum_stat]() {
    return sum_stat(&ShardChannel::Stats::connects);
  });
  registry.expose_counter(prefix + ".connect_failures", [sum_stat]() {
    return sum_stat(&ShardChannel::Stats::connect_failures);
  });
  registry.expose_counter(prefix + ".requests", [sum_stat]() {
    return sum_stat(&ShardChannel::Stats::requests);
  });
  registry.expose_counter(prefix + ".request_failures", [sum_stat]() {
    return sum_stat(&ShardChannel::Stats::request_failures);
  });
  registry.expose_counter(prefix + ".timeouts", [sum_stat]() {
    return sum_stat(&ShardChannel::Stats::timeouts);
  });
  registry.expose_counter(prefix + ".backoffs", [sum_stat]() {
    return sum_stat(&ShardChannel::Stats::backoffs);
  });
  registry.expose_counter(prefix + ".unavailable",
                          [this]() { return unavailable_; });
  registry.expose_gauge(prefix + ".version", [this]() {
    return static_cast<double>(self_version_);
  });
}

}  // namespace megate::net

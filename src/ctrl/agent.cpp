#include "megate/ctrl/agent.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace megate::ctrl {
namespace {

/// Deterministic per-agent phase in [0, spread).
double poll_phase(std::uint64_t instance_id, double spread) {
  std::uint64_t h = instance_id * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  return spread * static_cast<double>(h % 1000000ull) / 1e6;
}

}  // namespace

EndpointAgent::EndpointAgent(std::vector<std::uint64_t> instance_ids,
                             KvTransport* db, dataplane::HostStack* stack,
                             AgentOptions options)
    : ids_(std::move(instance_ids)),
      db_(db),
      stack_(stack),
      options_(options) {
  if (ids_.empty()) {
    throw std::invalid_argument("agent needs at least one instance");
  }
  keys_.reserve(ids_.size());
  for (std::uint64_t id : ids_) keys_.push_back(path_key(id));
  routes_.resize(ids_.size());
  raw_.resize(ids_.size());
  next_poll_s_ = poll_phase(ids_.front(),
                            options_.spread_interval_s > 0.0
                                ? options_.spread_interval_s
                                : options_.poll_interval_s);
  options_.retry_backoff_s = std::max(options_.retry_backoff_s, 1e-3);
  if (options_.metrics != nullptr) {
    // Histogram references are stable for the registry's lifetime, so the
    // hot pull path pays one relaxed-atomic observe, not a map lookup.
    pull_latency_ = &options_.metrics->histogram("ctrl.agent.pull.seconds");
    pull_batch_size_ =
        &options_.metrics->histogram("ctrl.agent.pull.batch_size");
  }
}

EndpointAgent::EndpointAgent(std::uint64_t instance_id, KvTransport* db,
                             dataplane::HostStack* stack,
                             AgentOptions options)
    : EndpointAgent(std::vector<std::uint64_t>{instance_id}, db, stack,
                    options) {}

std::size_t EndpointAgent::index_of(std::uint64_t instance_id) const {
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    if (ids_[i] == instance_id) return i;
  }
  throw std::out_of_range("instance not managed by this agent");
}

const std::vector<RouteEntry>& EndpointAgent::routes_for(
    std::uint64_t instance_id) const {
  return routes_[index_of(instance_id)];
}

const std::vector<std::uint32_t>& EndpointAgent::hops_for(
    std::uint64_t instance_id, std::uint32_t dst_site) const {
  static const std::vector<std::uint32_t> kEmpty;
  const RouteEntry* wildcard = nullptr;
  for (const RouteEntry& r : routes_[index_of(instance_id)]) {
    if (r.dst_site == dst_site) return r.hops;
    if (r.dst_site == dataplane::kAnyDstSite) wildcard = &r;
  }
  return wildcard != nullptr ? wildcard->hops : kEmpty;
}

const std::vector<std::uint32_t>& EndpointAgent::hops_for(
    std::uint32_t dst_site) const {
  return hops_for(ids_.front(), dst_site);
}

void EndpointAgent::apply_entry(std::size_t idx, GetStatus status,
                                std::string value) {
  // An entry equal to the last applied one changes nothing: skip the
  // decode and the host-stack writes. A pull then costs O(changed
  // entries) on the host, however many instances it serves.
  std::optional<std::string>& raw = raw_[idx];
  if (status == GetStatus::kOk ? raw == value : !raw.has_value()) return;
  // kMiss clears the table: with delta publishing the controller erases
  // an instance's entry when it loses all assigned flows, and the
  // instance falls back to five-tuple hashing.
  std::vector<RouteEntry> fresh =
      status == GetStatus::kOk ? decode_routes(value)
                               : std::vector<RouteEntry>{};
  if (stack_ != nullptr) {
    // Uninstall routes that disappeared, then install the new table.
    for (const RouteEntry& old : routes_[idx]) {
      const bool kept = std::any_of(
          fresh.begin(), fresh.end(), [&](const RouteEntry& r) {
            return r.dst_site == old.dst_site;
          });
      if (!kept) stack_->install_route(ids_[idx], old.dst_site, {});
    }
    for (const RouteEntry& r : fresh) {
      stack_->install_route(ids_[idx], r.dst_site, r.hops);
    }
  }
  routes_[idx] = std::move(fresh);
  if (status == GetStatus::kOk) {
    raw = std::move(value);
  } else {
    raw.reset();
  }
}

bool EndpointAgent::try_pull_batch() {
  const auto pull_start = std::chrono::steady_clock::now();
  const auto observe_latency = [&]() {
    if (pull_latency_ == nullptr) return;
    pull_latency_->observe(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - pull_start)
                               .count());
  };
  if (pull_batch_size_ != nullptr) {
    pull_batch_size_->observe(static_cast<double>(keys_.size()));
  }
  ControlCounters* c = options_.counters;
  // One drop decision per pull attempt, keyed on the primary id — the
  // whole batch travels (or is dropped) together, and batched/per-key
  // modes consume the hook identically (fingerprint equivalence).
  if (options_.fault_hooks != nullptr &&
      options_.fault_hooks->drop_pull(ids_.front())) {
    if (c != nullptr) ++c->pull_drops;
    observe_latency();
    return false;
  }

  // Fetch every entry first; apply only if all shards answered. Reading
  // all keys (no early exit) keeps the database-side query accounting
  // identical between the two modes.
  std::vector<GetResult> results;
  bool unavailable = false;
  if (options_.batch_pull) {
    MultiGetResult batch = db_->multi_get(keys_);
    unavailable = !batch.all_available() || !batch.consistent;
    results = std::move(batch.entries);
  } else {
    results.reserve(keys_.size());
    for (const std::string& key : keys_) {
      results.push_back(db_->get(key));
      if (results.back().status == GetStatus::kUnavailable) {
        unavailable = true;
      }
    }
  }
  if (unavailable) {
    if (c != nullptr) ++c->shard_unavailable;
    observe_latency();
    return false;
  }
  bool any_ok = false;
  for (std::size_t i = 0; i < results.size(); ++i) {
    apply_entry(i, results[i].status, std::move(results[i].value));
    if (results[i].status == GetStatus::kOk) any_ok = true;
  }
  if (any_ok && c != nullptr) ++c->pulls;
  observe_latency();
  return true;
}

void EndpointAgent::tick(double now_s) {
  ControlCounters* c = options_.counters;
  while (now_s >= next_poll_s_) {
    const double poll_time = next_poll_s_;
    ++polls_;
    if (c != nullptr) ++c->polls;
    const Version actual = db_->version();
    const Version v =
        options_.fault_hooks != nullptr
            ? options_.fault_hooks->observed_version(ids_.front(), actual)
            : actual;
    if (v != applied_) {
      if (try_pull_batch()) {
        applied_ = v;
        last_apply_s_ = poll_time;
        failed_pulls_ = 0;
      } else {
        // Keep the last-good routes (traffic stays on the previous config)
        // and retry after a short backoff instead of a full poll interval.
        ++failed_pulls_;
        if (c != nullptr) ++c->fallbacks_last_good;
        if (failed_pulls_ <= options_.max_pull_retries) {
          if (c != nullptr) ++c->pull_retries;
          next_poll_s_ = poll_time + options_.retry_backoff_s;
          continue;
        }
        // Retry budget exhausted: return to the normal cadence and try
        // again next interval (the outage is clearly longer-lived).
        failed_pulls_ = 0;
      }
    }
    next_poll_s_ = poll_time + options_.poll_interval_s;
  }
}

AgentFleet::AgentFleet(const std::vector<std::uint64_t>& instance_ids,
                       std::size_t instances_per_agent, KvTransport* db,
                       const AgentOptions& options) {
  const std::size_t n = instance_ids.size();
  const std::size_t per_agent = std::max<std::size_t>(instances_per_agent, 1);
  for (std::size_t i = 0; i < n; ++i) {
    agent_index_[instance_ids[i]] = i / per_agent;
  }
  for (std::size_t i = 0; i < n; i += per_agent) {
    const std::uint64_t* first = instance_ids.data() + i;
    std::vector<std::uint64_t> ids(first, first + std::min(per_agent, n - i));
    agents_.emplace_back(std::move(ids), db, nullptr, options);
  }
}

void AgentFleet::tick(double now_s) {
  for (EndpointAgent& a : agents_) a.tick(now_s);
}

std::size_t AgentFleet::at_version(Version v) const {
  return static_cast<std::size_t>(std::count_if(
      agents_.begin(), agents_.end(),
      [v](const EndpointAgent& a) { return a.applied_version() == v; }));
}

const EndpointAgent* AgentFleet::agent_of(std::uint64_t instance_id) const {
  const auto it = agent_index_.find(instance_id);
  return it == agent_index_.end() ? nullptr : &agents_[it->second];
}

std::vector<std::uint64_t> source_instances(
    const tm::TrafficMatrix& traffic) {
  std::vector<std::uint64_t> ids;
  for (const auto& [pair, flows] : traffic.pairs()) {
    for (const tm::EndpointDemand& f : flows) ids.push_back(f.src);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<double> measure_sync_lags(KvTransport& db,
                                      std::size_t n_instances,
                                      const AgentOptions& options,
                                      double publish_at_s, double horizon_s,
                                      double tick_step_s,
                                      std::size_t instances_per_agent) {
  std::vector<std::uint64_t> ids(n_instances);
  KvDelta seed;
  for (std::size_t i = 0; i < n_instances; ++i) {
    ids[i] = i;
    seed.upserts.emplace_back(path_key(i), "*:1,2");
  }
  AgentFleet fleet(ids, instances_per_agent, &db, options);

  bool published = false;
  for (double now = 0.0; now <= horizon_s; now += tick_step_s) {
    if (!published && now >= publish_at_s) {
      db.publish_delta(seed);  // the config update whose spread we measure
      published = true;
    }
    fleet.tick(now);
  }

  std::vector<double> lags;
  lags.reserve(n_instances);
  const Version target = db.version();
  for (const auto& a : fleet.agents()) {
    if (a.applied_version() == target && a.last_apply_time_s() >= 0.0) {
      // Every instance of the host applied together.
      for (std::size_t i = 0; i < a.instance_ids().size(); ++i) {
        lags.push_back(a.last_apply_time_s() - publish_at_s);
      }
    }
  }
  return lags;
}

}  // namespace megate::ctrl

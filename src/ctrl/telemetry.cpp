#include "megate/ctrl/telemetry.h"

namespace megate::ctrl {

void TelemetryCollector::ingest(
    const std::vector<dataplane::InstancePairReport>& report) {
  for (const dataplane::InstancePairReport& r : report) {
    volume_[Key{r.src_instance, r.dst_ip}] += r.bytes;
    total_bytes_ += r.bytes;
  }
}

tm::TrafficMatrix TelemetryCollector::finish_period() {
  tm::TrafficMatrix out;
  for (const auto& [key, bytes] : volume_) {
    tm::EndpointDemand d;
    d.src = key.src;
    // Recover the destination endpoint from its overlay address.
    const std::uint32_t dst_site = dataplane::overlay_ip_site(key.dst_ip);
    const std::uint32_t dst_index = dataplane::overlay_ip_index(key.dst_ip);
    d.dst = tm::make_endpoint(dst_site, dst_index);
    d.demand_gbps =
        static_cast<double>(bytes) * 8.0 / options_.period_s / 1e9;
    d.qos = options_.default_qos;
    if (d.demand_gbps < options_.min_demand_gbps) continue;
    out.add(d);
  }
  volume_.clear();
  total_bytes_ = 0;
  return out;
}

namespace {

/// Single source of truth for the ControlCounters field list — both the
/// live-pointer registration and the value iteration walk this table, so
/// a new field added here is exported everywhere at once.
struct CounterField {
  const char* name;
  std::uint64_t ControlCounters::* member;
};

constexpr CounterField kCounterFields[] = {
    {"polls", &ControlCounters::polls},
    {"pulls", &ControlCounters::pulls},
    {"pull_drops", &ControlCounters::pull_drops},
    {"pull_retries", &ControlCounters::pull_retries},
    {"shard_unavailable", &ControlCounters::shard_unavailable},
    {"stale_version_reads", &ControlCounters::stale_version_reads},
    {"fallbacks_last_good", &ControlCounters::fallbacks_last_good},
    {"publishes", &ControlCounters::publishes},
    {"publish_upserts", &ControlCounters::publish_upserts},
    {"publish_erases", &ControlCounters::publish_erases},
    {"publish_delta_bytes", &ControlCounters::publish_delta_bytes},
    {"incremental_solves", &ControlCounters::incremental_solves},
    {"incremental_cache_hits", &ControlCounters::incremental_cache_hits},
    {"incremental_cache_misses", &ControlCounters::incremental_cache_misses},
    {"incremental_dirty_pairs", &ControlCounters::incremental_dirty_pairs},
    {"incremental_invalidations",
     &ControlCounters::incremental_invalidations},
};

}  // namespace

void register_counters(obs::MetricsRegistry& registry,
                       const ControlCounters& counters,
                       const std::string& prefix) {
  for (const CounterField& f : kCounterFields) {
    const std::uint64_t* field = &(counters.*f.member);
    registry.expose_counter(prefix + "." + f.name,
                            [field]() { return *field; });
  }
}

void for_each_counter(
    const ControlCounters& counters,
    const std::function<void(const char*, std::uint64_t)>& fn) {
  for (const CounterField& f : kCounterFields) {
    fn(f.name, counters.*f.member);
  }
}

}  // namespace megate::ctrl

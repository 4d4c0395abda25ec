#include "megate/ctrl/hybrid_sync.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "megate/obs/span.h"

namespace megate::ctrl {
namespace {

/// Writes the plan's headline numbers into `registry` as gauges.
void export_plan_gauges(obs::MetricsRegistry& registry,
                        const HybridSyncPlan& plan) {
  registry.gauge("ctrl.hybrid_sync.persistent_instances")
      .set(static_cast<double>(plan.persistent_instances.size()));
  registry.gauge("ctrl.hybrid_sync.polling_instances")
      .set(static_cast<double>(plan.polling_instances));
  registry.gauge("ctrl.hybrid_sync.covered_traffic_share")
      .set(plan.covered_traffic_share);
  registry.gauge("ctrl.hybrid_sync.mean_staleness_s")
      .set(plan.mean_staleness_s);
  registry.gauge("ctrl.hybrid_sync.worst_staleness_s")
      .set(plan.worst_staleness_s);
  registry.gauge("ctrl.hybrid_sync.db_queries_per_s")
      .set(plan.db_queries_per_s);
  registry.gauge("ctrl.hybrid_sync.db_shards")
      .set(static_cast<double>(plan.resources.db_shards));
}

}  // namespace

HybridSyncPlan plan_hybrid_sync(const tm::TrafficMatrix& traffic,
                                const HybridSyncOptions& options) {
  if (options.heavy_traffic_share < 0.0 ||
      options.heavy_traffic_share > 1.0) {
    throw std::invalid_argument("heavy_traffic_share must be in [0, 1]");
  }
  std::unique_ptr<obs::Span> span;
  if (options.metrics != nullptr) {
    span = std::make_unique<obs::Span>(*options.metrics,
                                       "ctrl.hybrid_sync.plan");
  }
  HybridSyncPlan plan;

  // Aggregate traffic per source instance.
  std::unordered_map<std::uint64_t, double> per_instance;
  double total = 0.0;
  for (const auto& [pair, flows] : traffic.pairs()) {
    for (const tm::EndpointDemand& f : flows) {
      per_instance[f.src] += f.demand_gbps;
      total += f.demand_gbps;
    }
  }
  if (per_instance.empty() || total <= 0.0) {
    plan.resources = bottom_up_resources(0);
    if (options.metrics != nullptr) export_plan_gauges(*options.metrics, plan);
    return plan;
  }

  // Heaviest-first prefix covering the requested share.
  std::vector<std::pair<std::uint64_t, double>> ranked(per_instance.begin(),
                                                       per_instance.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;  // deterministic tie-break
  });
  double covered = 0.0;
  for (const auto& [instance, volume] : ranked) {
    if (covered >= options.heavy_traffic_share * total) break;
    plan.persistent_instances.push_back(instance);
    covered += volume;
  }
  plan.covered_traffic_share = covered / total;
  plan.polling_instances =
      ranked.size() - plan.persistent_instances.size();

  // Controller resources: persistent connections cost what the pressure
  // test measured; the polling tail rides the flat bottom-up machinery.
  const std::uint64_t conns = plan.persistent_instances.size();
  const SyncResources pushed = top_down_resources(conns);
  const SyncResources pulled = bottom_up_resources(plan.polling_instances);
  plan.db_queries_per_s = static_cast<double>(plan.polling_instances) /
                          kSpreadIntervalS;
  plan.resources.cpu_cores =
      (conns > 0 ? pushed.cpu_cores : 0.0) + pulled.cpu_cores;
  plan.resources.memory_gb =
      (conns > 0 ? pushed.memory_gb : 0.0) + pulled.memory_gb;
  plan.resources.db_shards = pulled.db_shards;

  // Staleness: pushed traffic updates in kPushLatencyS; polling traffic
  // in poll_interval/2 on average, poll_interval worst case.
  const double poll_mean = options.poll_interval_s / 2.0;
  plan.mean_staleness_s =
      plan.covered_traffic_share * kPushLatencyS +
      (1.0 - plan.covered_traffic_share) * poll_mean;
  plan.worst_staleness_s =
      plan.polling_instances > 0 ? options.poll_interval_s : kPushLatencyS;
  if (options.metrics != nullptr) export_plan_gauges(*options.metrics, plan);
  return plan;
}

}  // namespace megate::ctrl

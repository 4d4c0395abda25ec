#pragma once
// Telemetry collection: closes the measurement half of the MegaTE control
// loop (Fig. 3b, left side). Endpoint agents read instance-level flow
// volumes from their host stack each TE period ("store them into the
// backend server", §5.1); the collector aggregates those per-pair reports
// from every host into the next period's endpoint-granular TrafficMatrix
// — the {d_k^i} that MaxSiteFlow and FastSSP consume.
//
// Destination instances are recovered from the overlay IP convention
// (site in the top bits, endpoint index below); volumes are converted to
// demands by dividing by the TE period length.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "megate/dataplane/host_stack.h"
#include "megate/obs/metrics.h"
#include "megate/tm/traffic.h"

namespace megate::ctrl {

/// Health counters of the bottom-up control loop, aggregated across every
/// agent that shares a pointer to one instance (AgentOptions::counters)
/// plus the fault injector. Single-writer by design: the chaos/simulation
/// loops that populate these are single-threaded, so plain integers keep
/// the hot poll path free of atomics. The chaos bench and `megate_cli
/// chaos` surface them next to the availability numbers. They count
/// control-plane work only; solver statistics live in te::SolveReport.
struct ControlCounters {
  std::uint64_t polls = 0;                ///< version queries issued
  std::uint64_t pulls = 0;                ///< route entries pulled OK
  std::uint64_t pull_drops = 0;           ///< pulls dropped in flight
  std::uint64_t pull_retries = 0;         ///< backoff retries scheduled
  std::uint64_t shard_unavailable = 0;    ///< reads refused by a down shard
  std::uint64_t stale_version_reads = 0;  ///< version queries served stale
  std::uint64_t fallbacks_last_good = 0;  ///< kept last-good routes on error
  std::uint64_t publishes = 0;            ///< controller config publishes
  std::uint64_t publish_upserts = 0;      ///< delta entries written
  std::uint64_t publish_erases = 0;       ///< delta entries erased
  std::uint64_t publish_delta_bytes = 0;  ///< delta payload bytes written
};

/// Exposes every ControlCounters cell in `registry` under `<prefix>.`
/// (default "ctrl."). The struct stays the single storage — the registry
/// reads the live fields at snapshot time, so folding the counters into a
/// metrics export can never double-count or perturb the hot poll path.
/// `counters` must outlive the registry's use of it.
void register_counters(obs::MetricsRegistry& registry,
                       const ControlCounters& counters,
                       const std::string& prefix = "ctrl");

struct TelemetryOptions {
  /// TE period length; volume (bytes) over this window becomes Gbps.
  double period_s = 300.0;
  /// Demands below this are dropped as noise (control chatter etc.).
  double min_demand_gbps = 0.0;
};

/// Accumulates per-pair reports from many host stacks over one TE period.
class TelemetryCollector {
 public:
  explicit TelemetryCollector(TelemetryOptions options = {})
      : options_(options) {}

  /// Ingests one host's report (typically host.collect_pair_report()).
  void ingest(const std::vector<dataplane::InstancePairReport>& report);

  /// Convenience: collect-and-ingest straight from a host stack.
  void collect_from(dataplane::HostStack& host, bool reset = true) {
    ingest(host.collect_pair_report(reset));
  }

  std::size_t pairs_seen() const noexcept { return volume_.size(); }
  std::uint64_t total_bytes() const noexcept { return total_bytes_; }

  /// Builds the period's traffic matrix and clears the accumulator.
  tm::TrafficMatrix finish_period();

 private:
  struct Key {
    dataplane::InstanceId src;
    std::uint32_t dst_ip;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<std::uint64_t>{}(k.src * 0x9E3779B97F4A7C15ULL ^
                                        k.dst_ip);
    }
  };

  TelemetryOptions options_;
  std::unordered_map<Key, std::uint64_t, KeyHash> volume_;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace megate::ctrl

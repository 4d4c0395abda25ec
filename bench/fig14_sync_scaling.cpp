// Figure 14 reproduction: controller resources (CPU cores, memory) needed
// to synchronize TE configurations as the fleet grows, top-down
// persistent connections vs MegaTE's bottom-up database pull.
//
// The second table shows what batched pulls buy: with many instances per
// host served by one consistent multi_get, the querying population is the
// host count, so the TE database's query rate — and with it the shard
// count the sync model provisions — divides by the batch size.

#include <iostream>

#include "bench_common.h"
#include "megate/ctrl/sync_model.h"

int main() {
  using namespace megate;
  bench::print_header(
      "Figure 14: sync resources vs #endpoints (top-down vs bottom-up)",
      "1M endpoints top-down: >=167 cores + 125 GB; bottom-up: 1 core + "
      "1 GB (+ DB shards, 160k QPS on two shards)");

  bench::BenchReport report("fig14_sync_scaling");
  util::Table t("controller-side resources");
  t.header({"endpoints", "top-down cores", "top-down mem (GB)",
            "bottom-up cores", "bottom-up mem (GB)", "DB shards"});
  for (std::uint64_t n : {1000ull, 10000ull, 100000ull, 500000ull,
                          1000000ull, 2000000ull}) {
    const auto td = ctrl::top_down_resources(n);
    const auto bu = ctrl::bottom_up_resources(n);
    t.add_row({util::Table::with_commas(n), util::Table::num(td.cpu_cores, 0),
               util::Table::num(td.memory_gb, 1),
               util::Table::num(bu.cpu_cores, 0),
               util::Table::num(bu.memory_gb, 1),
               util::Table::num(bu.db_shards)});
    const std::string p = "fig14.eps" + std::to_string(n) + ".";
    auto& m = report.metrics();
    m.gauge(p + "top_down_cores").set(td.cpu_cores);
    m.gauge(p + "top_down_memory_gb").set(td.memory_gb);
    m.gauge(p + "bottom_up_cores").set(bu.cpu_cores);
    m.gauge(p + "bottom_up_memory_gb").set(bu.memory_gb);
    m.gauge(p + "db_shards").set(static_cast<double>(bu.db_shards));
  }
  t.print(std::cout);

  // Batched pulls: one multi_get per host agent instead of one get per
  // instance. DB shard provisioning follows the *host* query rate.
  util::Table tb("TE-database load at 1M endpoints vs pull batch size");
  tb.header({"instances/host", "querying hosts", "DB queries/s",
             "DB shards"});
  constexpr std::uint64_t kFleet = 1000000;
  for (std::uint64_t batch : {1ull, 4ull, 16ull, 64ull, 256ull}) {
    const std::uint64_t hosts = (kFleet + batch - 1) / batch;
    const auto bu = ctrl::bottom_up_resources(hosts);
    const double qps =
        static_cast<double>(hosts) / ctrl::kSpreadIntervalS;
    tb.add_row({util::Table::with_commas(batch),
                util::Table::with_commas(hosts), util::Table::num(qps, 0),
                util::Table::num(bu.db_shards)});
    const std::string p = "fig14.batch" + std::to_string(batch) + ".";
    auto& m = report.metrics();
    m.gauge(p + "querying_hosts").set(static_cast<double>(hosts));
    m.gauge(p + "db_queries_per_s").set(qps);
    m.gauge(p + "db_shards").set(static_cast<double>(bu.db_shards));
  }
  tb.print(std::cout);

  const auto td_1m = ctrl::top_down_resources(1000000);
  std::cout << "\nReference points: top-down 1M -> "
            << util::Table::num(td_1m.cpu_cores, 0) << " cores / "
            << util::Table::num(td_1m.memory_gb, 0)
            << " GB (paper: 167 / 125); bottom-up stays at 1 core / 1 GB "
               "because endpoint queries land on the sharded KV store, "
               "spread over the poll interval. Batched pulls divide the "
               "database's query rate by the instances-per-host factor "
               "without touching staleness (batching changes who asks, "
               "not how often).\n";
  return 0;
}

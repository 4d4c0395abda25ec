// Figure 13 reproduction: CPU utilization and memory of a 1-core/1-GB
// controller VM as the number of persistent endpoint connections grows
// (the top-down alternative of Fig. 4a), via the calibrated
// connection-manager pressure simulation.

#include <iostream>

#include "bench_common.h"
#include "megate/ctrl/connection_manager.h"
#include "megate/ctrl/sync_model.h"

int main() {
  using namespace megate;
  bench::print_header(
      "Figure 13: persistent-connection overhead on a 1-core/1-GB VM",
      "6,000 connections -> 90% CPU and 750 MB; operators flag sustained "
      "90% CPU as a failure risk");

  bench::BenchReport report("fig13_connection_overhead");
  util::Table t("connection sweep (1 Hz heartbeats, 60 s window)");
  t.header({"connections", "CPU %", "memory (MB)", "heartbeats/s",
            "at risk?"});
  for (std::uint64_t conns :
       {500ull, 1000ull, 2000ull, 3000ull, 4000ull, 5000ull, 6000ull}) {
    ctrl::ConnectionManager cm;
    cm.connect(conns);
    cm.run(60.0);
    cm.push_config_all();  // one TE update within the window
    const double cpu = 100.0 * cm.cpu_utilization();
    t.add_row({util::Table::with_commas(conns), util::Table::num(cpu, 1),
               util::Table::num(cm.memory_mb(), 0),
               util::Table::num(static_cast<double>(
                                    cm.heartbeats_processed()) /
                                    cm.simulated_seconds(),
                                0),
               cpu >= 85.0 ? "YES (>=90% sustained)" : "no"});
    const std::string p = "fig13.conns" + std::to_string(conns) + ".";
    report.metrics().gauge(p + "cpu_percent").set(cpu);
    report.metrics().gauge(p + "memory_mb").set(cm.memory_mb());
  }
  t.print(std::cout);

  std::cout << "\nAnalytic cross-check at 6,000 connections: "
            << util::Table::num(ctrl::top_down_cpu_percent(6000), 1)
            << "% CPU, " << util::Table::num(ctrl::top_down_memory_mb(6000), 0)
            << " MB (paper: 90% / 750 MB).\n";
  return 0;
}

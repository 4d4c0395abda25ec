// loop_bench — replays consecutive TE intervals of one workload through
// every layer of the MegaTE control loop and prints its metrics.
//
//   loop_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --shardd <megate_shardd binary> --scratch <dir>
//              [--toy] [--build-type T] [--git-rev R] [--src-digest D]
//
// A run sets the workload up `setups` times (setup_s is the median), then
// replays intervals on the last setup until --seconds have passed and at
// least `min_boundaries` boundary iterations completed. --trace 0 prints
// the end-to-end metrics; --trace 1 records spans (on every other
// interval, so the same run also measures the tracing overhead), writes
// them to <scratch>, and prints the per-layer metrics. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The exit code is 0 only when every check passed.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "loop.h"
#include "megate/net/tcp_transport.h"
#include "megate/obs/json.h"
#include "megate/util/stats.h"
#include "trace.h"
#include "world.h"

namespace {

using namespace loopbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;
  std::string shardd;
  std::string scratch = ".";
  std::string build_type = "unknown";
  std::string git_rev = "unknown";
  std::string src_digest = "unknown";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--toy") {
      a->toy = true;
    } else if (!has_value) {
      std::cerr << "loop_bench: missing value for " << k << "\n";
      return false;
    } else if (k == "--workload") {
      a->workload = argv[++i];
    } else if (k == "--seed") {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace") {
      a->trace = std::string(argv[++i]) == "1";
    } else if (k == "--shardd") {
      a->shardd = argv[++i];
    } else if (k == "--scratch") {
      a->scratch = argv[++i];
    } else if (k == "--build-type") {
      a->build_type = argv[++i];
    } else if (k == "--git-rev") {
      a->git_rev = argv[++i];
    } else if (k == "--src-digest") {
      a->src_digest = argv[++i];
    } else {
      std::cerr << "loop_bench: unknown argument " << k << "\n";
      return false;
    }
  }
  return !a->workload.empty();
}

double median(std::vector<double> xs) {
  return megate::util::percentile(xs, 50.0);
}

/// The fixed tail percentile of a sample that has at least `min_n`
/// values: the highest rung with >= `beyond` values above it. Fixing it
/// from the minimum (not the actual) count keeps it comparable across
/// runs. -1 when no rung qualifies.
int tail_percentile(std::size_t min_n, std::size_t beyond) {
  for (int p : {99, 95, 90, 80, 75, 67, 60, 50}) {
    if (static_cast<double>(min_n) * (100 - p) / 100.0 >=
        static_cast<double>(beyond)) {
      return p;
    }
  }
  return -1;
}

/// One printed metric. `note` (sample count, percentile) goes on the
/// human-readable line only; `dnf` marks a value that could not be
/// measured.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
  bool dnf = false;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Span totals per episode and name, and per-call durations per name,
/// over the traced episodes of one kind.
struct SpanView {
  const Tracer& tracer;
  std::vector<double> self;

  explicit SpanView(const Tracer& t) : tracer(t), self(t.self_seconds()) {}

  /// Median over traced episodes of `kind` of the summed wall (or self)
  /// time of spans named `name` in that episode. Episodes without such
  /// a span count as 0.
  double episode_median(EpisodeKind kind, SpanName name,
                        bool use_self = false) const {
    std::map<std::int32_t, double> per;
    const auto& eps = tracer.episodes();
    for (std::size_t e = 0; e < eps.size(); ++e) {
      if (eps[e].kind == kind && eps[e].traced) {
        per[static_cast<std::int32_t>(e)] = 0.0;
      }
    }
    const auto& spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name != name) continue;
      auto it = per.find(spans[i].episode);
      if (it == per.end()) continue;
      it->second += use_self ? self[i] : spans[i].seconds();
    }
    std::vector<double> xs;
    for (const auto& [e, v] : per) xs.push_back(v);
    return median(xs);
  }

  /// Durations (seconds) of every span named `name` in traced episodes
  /// of `kind`.
  std::vector<double> calls(EpisodeKind kind, SpanName name) const {
    std::vector<double> xs;
    const auto& eps = tracer.episodes();
    for (const Span& s : tracer.spans()) {
      if (s.name != name || s.episode < 0) continue;
      const Episode& e = eps[static_cast<std::size_t>(s.episode)];
      if (e.kind == kind && e.traced) xs.push_back(s.seconds());
    }
    return xs;
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Counter from a megate.metrics/1 file written by a shard daemon.
double daemon_counter(const std::string& path, const std::string& name) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0.0;
  std::string text;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    text.append(buf, n);
  }
  std::fclose(f);
  const auto doc = megate::obs::Json::parse(text);
  if (!doc) return 0.0;
  const auto* counters = doc->find("counters");
  const auto* v = counters != nullptr ? counters->find(name) : nullptr;
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::cerr << "usage: loop_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --shardd <path> "
                 "--scratch <dir> [--toy]\n";
    return 2;
  }
  const WorkloadSpec* base = nullptr;
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == args.workload) base = &w;
  }
  if (base == nullptr) {
    std::cerr << "loop_bench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const WorkloadSpec spec = args.toy ? toy(*base) : *base;
  // A toy run is too short for ten samples beyond a percentile.
  const std::size_t beyond = args.toy ? 1 : 10;
  const std::int64_t process_start = Tracer::now_ns();
  // Hard stop for the measuring loop, so a run ends within three minutes
  // even on a machine too slow to reach min_boundaries.
  const double hard_cap_s = 140.0;

  Tracer tracer(args.trace);
  WorldPaths paths{args.shardd, args.scratch};
  Outcomes out;
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  std::unique_ptr<LoopStats> stats;
  std::unique_ptr<ControlLoop> loop;
  try {
    for (std::size_t i = 0; i < spec.setups; ++i) {
      loop.reset();
      world.reset();  // stops the previous setup's daemons
      // Hand the freed world back to the OS, so peak RSS is one world's
      // footprint rather than an artifact of heap reuse across setups.
      malloc_trim(0);
      stats = std::make_unique<LoopStats>();
      tracer.begin_episode(EpisodeKind::kSetup, true);
      const std::int64_t t0 = Tracer::now_ns();
      {
        auto s = tracer.span(SpanName::kSetup);
        world = build_world(spec, args.seed, tracer, paths);
        loop = std::make_unique<ControlLoop>(*world, tracer, *stats, out);
        loop->bootstrap();
      }
      setup_s.push_back(static_cast<double>(Tracer::now_ns() - t0) * 1e-9);
    }
  } catch (const std::exception& e) {
    std::cerr << "loop_bench: setup failed: " << e.what() << "\n";
    return 1;
  }

  // --- the measured replay ---------------------------------------------
  const std::int64_t loop_start = Tracer::now_ns();
  const auto elapsed = [](std::int64_t since) {
    return static_cast<double>(Tracer::now_ns() - since) * 1e-9;
  };
  std::size_t intervals = 0;
  // Peak RSS after a fixed amount of work (the setups and the first
  // min_boundaries intervals): heap growth over a longer run would
  // otherwise make it depend on how fast the machine was.
  double rss_mb = 0.0;
  while (true) {
    const bool enough = stats->boundaries.size() >= spec.min_boundaries;
    if (enough && elapsed(loop_start) >= args.seconds) break;
    if (elapsed(process_start) >= hard_cap_s) break;
    if (out.failed() > 0 && intervals >= spec.min_boundaries) {
      break;
    }
    stats->fingerprinting = intervals < spec.min_boundaries;
    // The traced run records spans on every other interval; the others
    // give the untraced baseline for the overhead ratio.
    loop->run_interval(intervals, args.trace && intervals % 2 == 0);
    if (++intervals == spec.min_boundaries) rss_mb = peak_rss_mb();
  }
  if (rss_mb == 0.0) rss_mb = peak_rss_mb();
  const double measured_s = elapsed(loop_start);

  // TE-database counters.
  double snapshot_rebuilds = 0.0, multi_get_retries = 0.0;
  double net_unavailable = 0.0, net_request_failures = 0.0;
  if (spec.tcp) {
    for (auto* db : {world->controller_db.get(), world->agent_db.get()}) {
      auto* tcp = static_cast<megate::net::TcpKvTransport*>(db);
      net_unavailable += static_cast<double>(tcp->unavailable_results());
      for (std::size_t i = 0; i < tcp->num_shards(); ++i) {
        const auto& st = tcp->channel(i).stats();
        net_request_failures +=
            static_cast<double>(st.request_failures + st.timeouts);
      }
    }
    for (std::size_t i = 0; i < world->daemons.size(); ++i) {
      world->daemons[i]->stop();  // writes its metrics file
      snapshot_rebuilds +=
          daemon_counter(world->daemon_metrics[i], "kv.snapshot.rebuilds");
      multi_get_retries +=
          daemon_counter(world->daemon_metrics[i], "kv.multi_get.retries");
    }
  } else {
    snapshot_rebuilds = static_cast<double>(world->store->snapshot_rebuilds());
    multi_get_retries = static_cast<double>(world->store->multi_get_retries());
  }

  const std::vector<BoundarySample>& bs = stats->boundaries;
  std::vector<double> iteration_s, plan_s;
  double satisfied = 0.0;
  std::size_t satisfied_n = 0;
  for (const BoundarySample& b : bs) {
    iteration_s.push_back(b.iteration_s);
    plan_s.push_back(b.plan_to_fleet_s);
    if (b.interval < spec.min_boundaries) {
      satisfied += b.satisfied_ratio;
      ++satisfied_n;
    }
  }
  // Fault-to-plan time depends mostly on which link failed, so the metric
  // is the median over the cycle's links of each link's median: every
  // link weighs the same however far into a second cycle the run got.
  std::map<std::size_t, std::vector<double>> fault_by_slot;
  for (const FaultSample& f : stats->faults) {
    fault_by_slot[f.slot].push_back(f.fault_to_plan_s);
  }
  std::vector<double> fault_s;
  for (const auto& [slot, xs] : fault_by_slot) fault_s.push_back(median(xs));

  std::vector<std::string> dnf_reasons;
  const int iter_pct = tail_percentile(spec.min_boundaries, beyond);
  if (bs.size() < spec.min_boundaries) {
    dnf_reasons.push_back("only " + std::to_string(bs.size()) + " of " +
                          std::to_string(spec.min_boundaries) +
                          " boundary iterations completed");
  }
  const std::size_t events_per_interval = spec.flow_scale_events +
                                          spec.flash_crowds + spec.arrivals +
                                          spec.departures;
  const int patch_pct =
      tail_percentile(spec.min_boundaries * events_per_interval, beyond);
  const auto tail_ok = [&](std::size_t n, int pct) {
    return pct > 0 &&
           static_cast<double>(n) * (100 - pct) / 100.0 >=
               static_cast<double>(beyond);
  };

  std::vector<Metric> metrics;
  const auto add = [&](const std::string& name, double value,
                       const std::string& unit, const std::string& note,
                       bool dnf = false) {
    metrics.push_back(Metric{name, value, unit, note, dnf});
  };
  const auto n_note = [](std::size_t n) {
    return "n=" + std::to_string(n);
  };
  const auto pct_note = [](int pct, std::size_t n) {
    return "p" + std::to_string(pct) + " n=" + std::to_string(n);
  };

  if (!args.trace) {
    add("setup_s", median(setup_s), "s", "median " + n_note(setup_s.size()));
    add("iteration_p50_s", median(iteration_s), "s", n_note(bs.size()),
        bs.empty());
    add("iteration_tail_s",
        tail_ok(bs.size(), iter_pct) ? megate::util::percentile(
                                           iteration_s, iter_pct)
                                     : 0.0,
        "s", pct_note(iter_pct, bs.size()), !tail_ok(bs.size(), iter_pct));
    if (spec.faults) {
      add("plan_to_fleet_p50_s", median(fault_s), "s",
          "link down -> fleet at new version, median of per-link medians, " +
              std::to_string(fault_s.size()) + " links, " +
              n_note(stats->faults.size()),
          fault_s.empty());
    } else {
      add("plan_to_fleet_p50_s", median(plan_s), "s",
          "boundary -> fleet at new version, " + n_note(plan_s.size()),
          plan_s.empty());
    }
    add("patch_p50_us", median(stats->patch_us), "us",
        n_note(stats->patch_us.size()), stats->patch_us.empty());
    add("satisfied_ratio",
        satisfied_n > 0 ? satisfied / static_cast<double>(satisfied_n) : 0.0,
        "ratio", "mean over the first " + n_note(satisfied_n),
        satisfied_n == 0);
    add("peak_rss_mb", rss_mb, "MB",
        "setups and the first " + std::to_string(spec.min_boundaries) +
            " intervals");
  } else {
    const SpanView v(tracer);
    const auto B = EpisodeKind::kBoundary;
    const auto S = EpisodeKind::kSetup;
    std::vector<double> traced_iter, untraced_iter, s1, s2, other;
    std::vector<double> repaired_b;
    for (const BoundarySample& b : bs) {
      (b.traced ? traced_iter : untraced_iter).push_back(b.iteration_s);
      repaired_b.push_back(static_cast<double>(b.pairs_repaired));
      if (!b.traced) continue;
      s1.push_back(b.stage1_s);
      s2.push_back(b.stage2_s);
      other.push_back(b.solve_s - b.stage1_s - b.stage2_s);
    }
    std::vector<double> repaired_f;
    for (const FaultSample& f : stats->faults) {
      repaired_f.push_back(static_cast<double>(f.pairs_repaired));
    }
    const auto med_field = [&](auto field) {
      std::vector<double> xs;
      for (const BoundarySample& b : bs) xs.push_back(field(b));
      return median(xs);
    };
    const std::size_t traced_n = traced_iter.size();

    add("topo.build_tunnels_s", v.episode_median(S, SpanName::kBuildTunnels),
        "s", "median over setups");
    if (spec.faults) {
      add("topo.repair_tunnels_s",
          v.episode_median(EpisodeKind::kFault, SpanName::kRepairTunnels),
          "s", "per fault reaction");
      add("topo.pairs_repaired", median(repaired_f), "count",
          "per fault reaction, " + n_note(repaired_f.size()));
    } else {
      add("topo.repair_tunnels_s", v.episode_median(B, SpanName::kRepairTunnels),
          "s", "per boundary");
      add("topo.pairs_repaired", median(repaired_b), "count",
          "per boundary, " + n_note(repaired_b.size()));
    }
    add("tm.traffic_s", v.episode_median(S, SpanName::kTraffic), "s",
        "median over setups");
    add("te.solve_s", v.episode_median(B, SpanName::kSolve), "s",
        n_note(traced_n));
    add("te.stage1_s", median(s1), "s", n_note(s1.size()));
    add("te.stage2_s", median(s2), "s", n_note(s2.size()));
    add("te.solve_other_s", median(other), "s", n_note(other.size()));
    const double memo_total =
        static_cast<double>(stats->memo_hits + stats->memo_misses);
    add("te.memo_hit_ratio",
        memo_total > 0 ? static_cast<double>(stats->memo_hits) / memo_total
                       : 0.0,
        "ratio", "hits " + std::to_string(stats->memo_hits));
    add("te.cold_ratio",
        stats->solves > 0 ? static_cast<double>(stats->cold_solves) /
                                static_cast<double>(stats->solves)
                          : 0.0,
        "ratio", "solves " + std::to_string(stats->solves));
    add("te.check_s", v.episode_median(B, SpanName::kCheckSolution), "s",
        n_note(traced_n));
    add("te.online.rebase_s", v.episode_median(B, SpanName::kRebase), "s",
        n_note(traced_n));
    // The p99 of a ~1 us operation is set by preemption and cold caches
    // after each boundary, so it is a layer metric without a bound.
    const auto& patches = stats->patch_us;
    add("te.online.patch_tail_us",
        tail_ok(patches.size(), patch_pct)
            ? megate::util::percentile(patches, patch_pct)
            : 0.0,
        "us", pct_note(patch_pct, patches.size()),
        !tail_ok(patches.size(), patch_pct));
    const double offered = stats->admitted_gbps + stats->shed_gbps;
    add("te.online.shed_ratio",
        offered > 0 ? stats->shed_gbps / offered : 0.0, "ratio",
        "events " + std::to_string(stats->patch_us.size()));
    add("ctrl.first_publish_s", v.episode_median(S, SpanName::kPublish), "s",
        "median over setups");
    add("ctrl.publish_s", v.episode_median(B, SpanName::kPublish), "s",
        n_note(traced_n));
    add("ctrl.publish_self_s",
        v.episode_median(B, SpanName::kPublish, /*use_self=*/true), "s",
        n_note(traced_n));
    add("ctrl.publish_upserts",
        med_field([](const BoundarySample& b) {
          return static_cast<double>(b.upserts);
        }),
        "count", n_note(bs.size()));
    add("ctrl.publish_erases",
        med_field([](const BoundarySample& b) {
          return static_cast<double>(b.erases);
        }),
        "count", n_note(bs.size()));
    add("ctrl.delta_bytes_ratio",
        med_field([](const BoundarySample& b) { return b.delta_bytes_ratio; }),
        "ratio", n_note(bs.size()));
    add("ctrl.pull_s", v.episode_median(B, SpanName::kPollRound), "s",
        n_note(traced_n));
    std::vector<double> polls = v.calls(B, SpanName::kAgentPoll);
    for (double& x : polls) x *= 1e6;
    const int poll_pct = tail_percentile(polls.size(), beyond);
    add("ctrl.pull_p50_us", median(polls), "us", n_note(polls.size()),
        polls.empty());
    add("ctrl.pull_tail_us",
        poll_pct > 0 ? megate::util::percentile(polls, poll_pct) : 0.0, "us",
        pct_note(poll_pct, polls.size()), poll_pct <= 0);
    add("ctrl.pull_failed", static_cast<double>(out.polls_failed), "count",
        "polls " + std::to_string(out.polls));
    add("kv.publish_delta_s", v.episode_median(B, SpanName::kPublishDelta),
        "s", std::string(world->controller_db->name()) + " transport");
    std::vector<double> gets = v.calls(B, SpanName::kMultiGet);
    for (double& x : gets) x *= 1e6;
    add("kv.multi_get_us", median(gets), "us", n_note(gets.size()),
        gets.empty());
    std::vector<double> versions = v.calls(B, SpanName::kVersion);
    for (double& x : versions) x *= 1e6;
    add("kv.version_us", median(versions), "us", n_note(versions.size()),
        versions.empty());
    add("kv.snapshot_rebuilds", snapshot_rebuilds, "count", "whole run");
    add("kv.multi_get_retries", multi_get_retries, "count", "whole run");
    add("net.unavailable", net_unavailable, "count",
        spec.tcp ? "tcp" : "in-process: no network");
    add("net.request_failures", net_request_failures, "count",
        spec.tcp ? "tcp" : "in-process: no network");
    std::vector<double> encaps = v.calls(B, SpanName::kTcEgress);
    for (double& x : encaps) x *= 1e9;
    add("dataplane.encap_ns", median(encaps), "ns", n_note(encaps.size()),
        encaps.empty());
    add("dataplane.encap_mismatches", static_cast<double>(out.encap_mismatches),
        "count", "packets " + std::to_string(out.packets));
    add("bench.unattributed_s",
        v.episode_median(B, SpanName::kIteration, /*use_self=*/true), "s",
        n_note(traced_n));
    const double untraced_p50 = median(untraced_iter);
    add("bench.trace_overhead_ratio",
        untraced_p50 > 0 ? median(traced_iter) / untraced_p50 - 1.0 : 0.0,
        "ratio",
        "traced " + std::to_string(traced_n) + " vs untraced " +
            std::to_string(untraced_iter.size()),
        untraced_iter.empty() || traced_iter.empty());
  }

  for (const Metric& m : metrics) {
    if (m.dnf) dnf_reasons.push_back(m.name + " could not be measured");
  }

  // --- report ------------------------------------------------------------
  std::size_t flows = 0;
  for (const auto& [pair, fs] : world->traffic.pairs()) flows += fs.size();
  std::ostringstream ctx;
  ctx << "{\"workload\":\"" << spec.name << "\",\"seed\":" << args.seed
      << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"toy\":" << (args.toy ? "true" : "false")
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"build_type\":\"" << args.build_type << "\",\"git_rev\":\""
      << args.git_rev << "\",\"src_digest\":\"" << args.src_digest
      << "\",\"sites\":" << world->graph.num_nodes()
      << ",\"links\":" << world->graph.num_links()
      << ",\"endpoints\":" << world->layout.total_endpoints()
      << ",\"flows\":" << flows
      << ",\"site_pairs\":" << world->traffic.num_site_pairs()
      << ",\"tunnels\":" << world->tunnels.total_tunnels()
      << ",\"agents\":" << world->agents.size()
      << ",\"transport\":\"" << world->controller_db->name()
      << "\",\"setups\":" << setup_s.size() << ",\"intervals\":" << intervals
      << ",\"boundaries\":" << bs.size()
      << ",\"fault_reactions\":" << stats->faults.size()
      << ",\"measured_s\":" << fmt(measured_s) << "}";
  std::cout << "context " << ctx.str() << "\n";
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " "
              << (m.dnf ? std::string("DNF") : fmt(m.value)) << " " << m.unit;
    if (!m.note.empty()) std::cout << " (" << m.note << ")";
    std::cout << "\n";
  }
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(stats->plan_fingerprint));
  std::cout << "plan_fingerprint " << fp << " (first "
            << spec.min_boundaries << " intervals, seed " << args.seed
            << ")\n";
  std::cout << "checks solves " << out.solves << "/" << out.solves_failed
            << " polls " << out.polls << "/" << out.polls_failed
            << " packets " << out.packets << "/" << out.encap_mismatches
            << " online " << out.online_ops << "/" << out.online_failed
            << " standing_plans " << out.snapshots << "/"
            << out.snapshots_failed << " (attempted/failed)\n";
  const double failed_ratio =
      out.attempted() > 0 ? static_cast<double>(out.failed()) /
                                static_cast<double>(out.attempted())
                          : 0.0;
  std::cout << "failed_ratio " << fmt(failed_ratio) << "\n";
  for (const std::string& m : out.messages) {
    std::cerr << "check failed: " << m << "\n";
  }
  for (const std::string& r : dnf_reasons) std::cerr << "DNF: " << r << "\n";

  if (args.trace) {
    const std::string path = args.scratch + "/spans-" + spec.name + "-seed" +
                             std::to_string(args.seed) + ".tsv";
    if (tracer.write_tsv(path)) {
      std::cout << "spans " << tracer.spans().size() << " written to "
                << path << "\n";
    } else {
      std::cerr << "loop_bench: could not write " << path << "\n";
    }
  }

  const bool correct = out.failed() == 0 && dnf_reasons.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted()
            << ", \"failed\": " << out.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << (m.dnf ? std::string("null") : fmt(m.value))
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

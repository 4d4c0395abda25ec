#!/usr/bin/env bash
# CI entry point. Three stages:
#
#   1. default build  + the full ctest suite
#   2. ASan+UBSan build of megate_tests, running the fault-injection,
#      property, differential and thread-pool suites
#   3. TSan build, running the concurrency-sensitive suites (KvStore,
#      ThreadPool, agents)
#
# Sanitized stages build only the test binary to keep CI time sane.
# Stages can be selected: ./ci.sh [default|asan|tsan|all] (default: all).

set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"
STAGE="${1:-all}"

# The socket suites spawn megate_shardd / megate_agentd children. They
# reap their own processes, but a crashed or timed-out test binary can
# leave daemons behind — sweep anything started from our build trees.
cleanup_daemons() {
  pkill -f "$(pwd)/build[^ ]*/tools/megate_shardd" 2>/dev/null || true
  pkill -f "$(pwd)/build[^ ]*/tools/megate_agentd" 2>/dev/null || true
}
trap cleanup_daemons EXIT

# Sanitized gtest runs are wrapped in a hard wall-clock limit: a wedged
# daemon or a lost socket must fail CI, not hang it.
SANITIZED_TIMEOUT="${SANITIZED_TIMEOUT:-1200}"

run_default() {
  cmake -S . -B build -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build -j"$JOBS"
  ctest --test-dir build --output-on-failure
  run_metrics_json_check
  run_header_check
}

# Every public header must compile standalone (self-contained includes):
# a header that only builds because some .cpp included its dependencies
# first breaks the next caller. Compiles each src/*/include/megate/**/*.h
# as its own translation unit.
run_header_check() {
  local inc_flags=()
  local dir
  for dir in src/*/include; do inc_flags+=("-I$dir"); done
  local fails=0 h
  while IFS= read -r h; do
    if ! printf '#include "%s"\n' "${h#src/*/include/}" |
      c++ -std=c++20 -fsyntax-only -Wall -Wextra "${inc_flags[@]}" \
        -x c++ - 2>"build/header_check.err"; then
      echo "header not self-contained: $h" >&2
      cat build/header_check.err >&2
      fails=$((fails + 1))
    fi
  done < <(find src/*/include/megate -name '*.h' | sort)
  rm -f build/header_check.err
  if [ "$fails" -ne 0 ]; then
    echo "ci.sh: $fails header(s) failed the self-containment check" >&2
    return 1
  fi
  echo "ci.sh: header self-containment check passed"
}

# Every metrics producer must emit a document that validates against the
# megate.metrics/1 schema: megate_cli (solve + chaos) and a sample of
# bench targets (benches all share bench::BenchReport, so validating a
# few binaries covers the shared writer; micro_kvstore additionally
# covers the google-benchmark custom-main path).
run_metrics_json_check() {
  local out=build/ci-metrics
  rm -rf "$out" && mkdir -p "$out"
  ./build/tools/megate_cli solve --kind b4 --endpoints 200 \
    --metrics-json "$out/cli_solve.json" >/dev/null
  # Fault-free plan: chaos exits nonzero on SLO violations, and this
  # stage checks the JSON contract, not chaos tolerance (ctest does that).
  ./build/tools/megate_cli chaos --intervals 3 --shard-crashes 0 \
    --link-failures 0 --pull-drops 0 --stale-windows 0 \
    --metrics-json "$out/cli_chaos.json" >/dev/null
  (cd "$out" &&
    ../bench/fig08_endpoint_cdf >/dev/null &&
    ../bench/fig16_availability >/dev/null &&
    ../bench/fig17_cost >/dev/null &&
    ../bench/ablation_stage1 >/dev/null &&
    ../bench/ablation_tunnels >/dev/null &&
    ../bench/online_churn >/dev/null &&
    ../bench/ablation_prediction >/dev/null &&
    ../bench/micro_kvstore --benchmark_filter=skip_all >/dev/null 2>&1)
  # check_metrics_json additionally enforces the per-bench contracts
  # (stage-1 thread sweep, tunnel-selection hop-budget frontier, online
  # churn regret/violation bars, learned-allocation frontier speedup/
  # quality/audit bars).
  ./build/tools/check_metrics_json "$out"/*.json
}

# The suites introduced by the fault-injection PR, plus everything that
# exercises the hook seams. UBSan traps (fno-sanitize-recover) so any hit
# fails the run.
ASAN_FILTER='FaultPlanTest.*:KvStoreFaultTest.*:AgentFaultTest.*'
ASAN_FILTER+=':ConnectionManagerFaultTest.*:FaultInjectorTest.*'
ASAN_FILTER+=':ChaosTest.*:PeriodSimFaultTest.*:HybridSyncFaultTest.*'
ASAN_FILTER+=':PropertyTest.*:Sweep/FastSspDifferential.*'
ASAN_FILTER+=':ThreadPoolHardening.*'
# Incremental-vs-cold differential suite + cache invalidation/parity tests
# (tests/incremental_test.cpp): the memo hands out pointers into cached
# entries and replays assignments across intervals, exactly the kind of
# lifetime bug ASan exists for.
ASAN_FILTER+=':IncrementalDifferential.*:IncrementalCacheTest.*'
ASAN_FILTER+=':IncrementalFaultReplay.*:IncrementalParity.*'
# Observability layer + dataplane hardening (obs_test.cpp,
# dataplane_hardening_test.cpp): the fuzz sweeps feed truncated/corrupt
# frames through every parser, and the metrics registry reads exposed
# cells through type-erased callbacks — both are ASan/UBSan territory.
ASAN_FILTER+=':Metrics.*:Spans.*:MetricsJson.*:ObsConcurrency.*'
ASAN_FILTER+=':MetricsParity.*:SrHardening.*:FragHardening.*'
ASAN_FILTER+=':OverlayHardening.*:FuzzHardening.*'
# Epoch-snapshot KV store (tests/kv_snapshot_test.cpp): copy-on-write
# snapshots share buckets across versions and the epoch domain defers
# frees — use-after-retire is precisely an ASan bug class.
ASAN_FILTER+=':KvSnapshotTest.*:KvSnapshotConcurrency.*'
ASAN_FILTER+=':BatchedPullPropertyTest.*'
# Socket control plane (tests/net_test.cpp, tests/netctrl_test.cpp): the
# codec fuzzers feed truncated/corrupt frames through every decoder, and
# the process-level chaos suites kill/SIGSTOP real shardd children
# mid-request — buffer lifetimes across partial reads and reconnects are
# exactly ASan's bug class. The daemons themselves run sanitized too
# (the test binary discovers them next to itself in build-asan/).
ASAN_FILTER+=':WireTest.*:CodecTest.*:FrameDecoderTest.*:FuzzTest.*'
ASAN_FILTER+=':EventLoopTest.*:ServerChannelTest.*:BackoffTest.*'
ASAN_FILTER+=':TcpTransportTest.*:NetctrlProcessTest.*'
ASAN_FILTER+=':ChaosTransportParityTest.*:TransportDifferentialTest.*'
ASAN_FILTER+=':NetctrlAcceptanceTest.*'
# Data-parallel stage-1 packing (tests/stage1_parallel_test.cpp,
# tests/lp_test.cpp): the batched solver indexes a hand-built SoA arena
# with raw pointer kernels and shards tiles across the pool — off-by-one
# tile bounds and arena lifetime bugs are ASan territory, and the
# 100-seed differential suite drives every code path.
ASAN_FILTER+=':Stage1Differential.*:Stage1Parallel.*'
ASAN_FILTER+=':Packing.*:PackingInvariants.*'
# SR hop-budget planning (tests/tunnel_budget_test.cpp): the property
# suite serializes every built tunnel through dataplane::SrHeader across
# fuzzed seeds x budgets x both selection backends, and the centrality
# backend composes paths from raw parent-tree walks — index arithmetic
# over preallocated trees is ASan territory.
ASAN_FILTER+=':TunnelBudgetProperty.*:KspDeterminism.*'
ASAN_FILTER+=':CentralityBackend.*:TunnelStats.*'
# Parallel tunnel builder (tests/tunnel_parallel_test.cpp): Yen runs on
# reused flat workspaces with epoch-stamped ban arrays indexed by raw
# node/link ids, and workers write per-pair slots merged afterwards — a
# stale index or a slot overrun is ASan territory.
ASAN_FILTER+=':TunnelParallel.*'
# Online intra-interval TE (tests/online_test.cpp): DemandStream appends
# flows at recorded tail indices and the allocator patches index-aligned
# reservation vectors in place while snapshots copy them — stale-index
# and iterator-invalidation bugs are ASan territory, and the invariant
# audit replays every event kind.
ASAN_FILTER+=':DemandStreamTest.*:OnlineAllocatorTest.*'
ASAN_FILTER+=':OnlineDifferential.*:PeriodSimChurnTest.*:ChaosChurnTest.*'
# Learned allocation (tests/learned_test.cpp): the shared repair kernel
# reuses CSR-style SoA arenas across solves and hands out raw spans into
# them, the quantization pass walks index-sorted views of pair flow
# lists, and the 100+-interval differential replays train/predict cycles
# over evolving matrices — arena reuse and span lifetime bugs are ASan
# territory.
ASAN_FILTER+=':TealRepairParity.*:RepairKernel.*:LearnedGate.*'
ASAN_FILTER+=':FlowPredictorDeterminism.*:FlowPredictorEdgeCases.*'
ASAN_FILTER+=':LearnedConcurrency.*'
# Stage-1 presolve (tests/site_lp_presolve_test.cpp): the presolve walks
# flat per-pair/per-link CSR slices and stamp arrays indexed by raw link
# ids before the reduced model is built — an off-by-one slice bound is
# ASan territory, and the differential sweep drives every path.
ASAN_FILTER+=':SiteLpPresolve.*'

run_asan() {
  cmake -S . -B build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMEGATE_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j"$JOBS" \
    --target megate_tests megate_shardd megate_agentd
  timeout "$SANITIZED_TIMEOUT" \
    ./build-asan/tests/megate_tests --gtest_filter="$ASAN_FILTER"
}

# Suites with real cross-thread traffic: the sharded KV store under
# concurrent readers/writers and the thread pool under multi-producer
# submit stress.
TSAN_FILTER='KvStore.*:ThreadPool.*:ThreadPoolHardening.*:Agent.*'
# Registry hot paths are relaxed atomics; snapshots race writers by design.
TSAN_FILTER+=':ObsConcurrency.*'
# Lock-free snapshot reads vs delta publishes, seqlock multi_get cuts and
# shard flap/recovery races (tests/kv_snapshot_test.cpp).
TSAN_FILTER+=':KvSnapshotTest.*:KvSnapshotConcurrency.*'
# Socket layer under TSan: the in-thread server tests run ShardServer's
# epoll loop on a background thread against a foreground client, and the
# multi-process suites exercise the shardd/agentd daemons (spawned from
# build-tsan/, so sanitized) with kill/SIGSTOP faults mid-traffic.
TSAN_FILTER+=':ServerChannelTest.*:BackoffTest.*:TcpTransportTest.*'
TSAN_FILTER+=':EventLoopTest.*:NetctrlProcessTest.*'
TSAN_FILTER+=':ChaosTransportParityTest.*:TransportDifferentialTest.*'
TSAN_FILTER+=':NetctrlAcceptanceTest.*'
# Batched packing kernels on real pool workers: the tiled scoring and
# clamp gathers run concurrently over shared arenas, and the differential
# suite sweeps thread counts — any missed synchronization in the
# tile-merge order shows up here as a data race.
TSAN_FILTER+=':Stage1Differential.*:Stage1Parallel.*'
# OnlineAllocator snapshots race apply() by design (publisher thread vs
# event thread, serialized on the internal mutex) — the concurrency
# suite drives exactly that interleaving.
TSAN_FILTER+=':OnlineConcurrency.*'
# LearnedAllocator's training loop: observe() (SGD + prior EWMAs) runs
# concurrently with allocate() (model forward pass + pooled repair) and
# the read accessors from a third thread, all serialized on the internal
# mutex — plus the repair kernel's parallel phases on real pool workers.
TSAN_FILTER+=':LearnedConcurrency.*:RepairKernel.*'
# Tunnel build/repair fan source groups out over a transient pool:
# workers claim chunks from a shared atomic cursor and write disjoint
# per-pair slots that the caller merges after the join — these suites
# drive every build and repair path on real pool workers.
TSAN_FILTER+=':TunnelParallel.*:Tunnels.*:KspDeterminism.*'
TSAN_FILTER+=':TunnelBudgetProperty.*'
# Clustered stage 1 submits one pool task per bucket (largest first) and
# the presolve suite solves the same buckets on 1/2/4-thread pools.
TSAN_FILTER+=':SiteLpPresolve.*'

run_tsan() {
  cmake -S . -B build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMEGATE_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j"$JOBS" \
    --target megate_tests megate_shardd megate_agentd
  timeout "$SANITIZED_TIMEOUT" \
    ./build-tsan/tests/megate_tests --gtest_filter="$TSAN_FILTER"
}

case "$STAGE" in
  default) run_default ;;
  asan)    run_asan ;;
  tsan)    run_tsan ;;
  all)     run_default; run_asan; run_tsan ;;
  *) echo "usage: $0 [default|asan|tsan|all]" >&2; exit 2 ;;
esac

echo "ci.sh: stage '$STAGE' passed"

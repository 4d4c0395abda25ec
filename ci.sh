#!/usr/bin/env bash
# CI entry point. Three stages:
#
#   1. default build  + the full ctest suite + metrics/header checks +
#      the control-loop benchmark's toy-scale smoke test
#   2. ASan+UBSan build of megate_tests, running every test in it
#   3. TSan build of megate_tests, running every test in it
#
# Sanitized stages build only the test binary and the daemons it spawns
# (megate_shardd / megate_agentd, which then run sanitized too). No test
# is filtered out, so a new suite is sanitized from its first commit.
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

# Every stage builds with -Werror: the tree compiles warning-free under
# -Wall -Wextra, so a new warning fails CI instead of hiding among old ones.
WERROR=-DCMAKE_CXX_FLAGS=-Werror

# Sanitized gtest runs are wrapped in a hard wall-clock limit: a wedged
# daemon or a lost socket must fail CI, not hang it.
SANITIZED_TIMEOUT="${SANITIZED_TIMEOUT:-1200}"

run_default() {
  cmake -S . -B build -DCMAKE_BUILD_TYPE=RelWithDebInfo "$WERROR" >/dev/null
  cmake --build build -j"$JOBS"
  ctest --test-dir build --output-on-failure
  run_metrics_json_check
  run_header_check
  run_loopbench_smoke
}

# The control-loop benchmark (loopbench/) reads the solver's public
# report types; its toy-scale smoke test checks that every workload still
# runs correct with failed == 0, prints exactly the declared metrics, and
# keeps its plan fingerprint with tracing on and off.
run_loopbench_smoke() {
  python3 loopbench/smoke_test.py
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
      c++ -std=c++20 -fsyntax-only -Wall -Wextra -Werror "${inc_flags[@]}" \
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
    ../bench/fig12_failures >/dev/null &&
    ../bench/fig16_availability >/dev/null &&
    ../bench/fig17_cost >/dev/null &&
    ../bench/ablation_stage1 >/dev/null &&
    ../bench/ablation_incremental >/dev/null &&
    ../bench/ablation_tunnels >/dev/null &&
    ../bench/online_churn >/dev/null &&
    ../bench/ablation_prediction >/dev/null &&
    ../bench/micro_kvstore --benchmark_filter=skip_all >/dev/null 2>&1 &&
    ../bench/micro_lp --benchmark_filter=skip_all >/dev/null 2>&1)
  # check_metrics_json additionally enforces the per-bench contracts
  # (stage-1 certified gap, tunnel-selection hop-budget frontier, online
  # churn regret/violation bars, kvstore first-publish scaling, the exact
  # simplex's sparse memory and optimality on micro_lp, Fig. 12's
  # shape (MegaTE ahead of NCFlow at every point, the gap growing with
  # endpoints), the knowledge ablation's oracle >= EWMA >= stale shape,
  # and the learned-allocation frontier: every lane against the fastest
  # exact lane of the same replay, >= 5x on the TWAN 100k replay, quality
  # and audit bars). ablation_prediction runs its TWAN replay every time
  # (~15 s of this stage). ablation_incremental gates itself: it exits
  # non-zero unless the stage-2 memo cuts the median solve's process CPU
  # time >= 2x against a cold solve (CPU, not wall: the cold lane's
  # parallel stage 2 hides work on whatever cores the host spares).
  ./build/tools/check_metrics_json "$out"/*.json
}

# UBSan traps (-fno-sanitize-recover) so any hit fails the run.
run_asan() {
  cmake -S . -B build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo "$WERROR" \
    -DMEGATE_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j"$JOBS" \
    --target megate_tests megate_shardd megate_agentd
  timeout "$SANITIZED_TIMEOUT" ./build-asan/tests/megate_tests
}

run_tsan() {
  cmake -S . -B build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo "$WERROR" \
    -DMEGATE_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j"$JOBS" \
    --target megate_tests megate_shardd megate_agentd
  timeout "$SANITIZED_TIMEOUT" ./build-tsan/tests/megate_tests
}

case "$STAGE" in
  default) run_default ;;
  asan)    run_asan ;;
  tsan)    run_tsan ;;
  all)     run_default; run_asan; run_tsan ;;
  *) echo "usage: $0 [default|asan|tsan|all]" >&2; exit 2 ;;
esac

echo "ci.sh: stage '$STAGE' passed"

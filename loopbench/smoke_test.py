#!/usr/bin/env python3
"""Smoke test of the control-loop benchmark at toy scale.

Runs every workload of BENCHMARK.json shrunk to a few hundred endpoints
and two intervals (run.py --toy), untraced and traced, and asserts that:
  - the run exits 0 and its result reports correct=true and failed=0;
  - the untraced run prints exactly the end_to_end metrics and the traced
    run exactly the per_layer metrics, each a number with the declared unit;
  - the run context and the plan fingerprint are printed, and the
    fingerprint is the same with and without tracing.

Usage (from the repository root): python3 loopbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--toy"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, p.stderr


def check(workload, trace, expected, errors):
    code, lines, stderr = run(workload, trace)
    tag = f"{workload} trace={trace}"
    if code != 0 or not lines:
        errors.append(f"{tag}: exit {code}\n{stderr[-2000:]}")
        return None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{tag}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{tag}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{tag}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    names = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(names):
        errors.append(f"{tag}: metrics differ: missing "
                      f"{sorted(set(names) - set(metrics))}, extra "
                      f"{sorted(set(metrics) - set(names))}")
    for name, unit in names.items():
        m = metrics.get(name)
        if m is None:
            continue
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{tag}: {name} has no numeric value")
        if m.get("unit") != unit:
            errors.append(f"{tag}: {name} unit {m.get('unit')} != {unit}")
    if not any(line.startswith("context {") for line in lines):
        errors.append(f"{tag}: no context line")
    fingerprints = [line.split()[1] for line in lines
                    if line.startswith("plan_fingerprint ")]
    if len(fingerprints) != 1:
        errors.append(f"{tag}: no plan fingerprint")
        return None
    return fingerprints[0]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        before = len(errors)
        fp0 = check(w["name"], 0, spec["end_to_end"], errors)
        fp1 = check(w["name"], 1, spec["per_layer"], errors)
        if fp0 is not None and fp1 is not None and fp0 != fp1:
            errors.append(f"{w['name']}: plan fingerprint {fp0} untraced "
                          f"vs {fp1} traced")
        print(f"{w['name']}: {'ok' if len(errors) == before else 'FAILED'}",
              flush=True)
    for e in errors:
        print("FAIL:", e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Control-loop benchmark: builds loop_bench from source and runs one workload.

Usage (from the repository root):

    python3 loopbench/run.py --workload b4_endpoints --seed 1 --seconds 40 --trace 0

The build goes to .bench_build/loopbench (CMake, RelWithDebInfo); span
files and shard-daemon metrics of a run go to .bench_build/loopbench/runs.
The benchmark's own output is relayed unchanged, so the last line of
standard output is its JSON result. The exit code is the benchmark's: 0
only when every output check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "loopbench")
BUILD_TYPE = "RelWithDebInfo"
# The benchmark stops measuring by itself well before this.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"loopbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns False on any failure."""
    jobs = str(os.cpu_count() or 1)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "loop_bench", "megate_shardd"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def git_rev():
    if shutil.which("git") is None or not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the sources the benchmark builds: identifies the code
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tools"), HERE]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".h", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="a few hundred endpoints, two intervals (smoke test)")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"MegaTE sources not found under {ROOT}/src")
        return 2
    if not build():
        return 2

    runs = os.path.join(BUILD_DIR, "runs")
    os.makedirs(runs, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "loop_bench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--shardd", os.path.join(BUILD_DIR, "megate_shardd"),
           "--scratch", runs,
           "--build-type", BUILD_TYPE,
           "--git-rev", git_rev(),
           "--src-digest", source_digest()]
    if args.toy:
        cmd.append("--toy")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        sys.stdout.write(out.decode() if isinstance(out, bytes) else out)
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None:
        log(f"no result line (exit code {proc.returncode})")
        return proc.returncode or 4
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

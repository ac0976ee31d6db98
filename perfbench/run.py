#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload payload_grid --seed 1 --seconds 25 --trace 0

Run from the repository root. The simulator library is built from ../src
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last
line of stdout is the result object: correct, attempted, failed, metrics.
Besides the checks the benchmark binary makes, this script compares the
digest of the simulated outputs with the one recorded for the same binary,
workload and seed by an earlier run, and marks the run incorrect on any
difference.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("payload_grid", "kv_mixgraph", "batch_auto")
RUN_LIMIT_S = 175  # a run that needs no build
BUILD_RUN_LIMIT_S = 880  # the first run in a checkout, which builds


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(bench_dir, build_dir):
    """Configures once, then builds incrementally; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step), 1)
    return os.path.join(build_dir, "perfbench")


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_digest(build_dir, binary, line):
    """Records the run's digest; False when an earlier run of the same
    binary, workload and seed recorded a different one."""
    _, workload, seed, value = line.split()
    store = os.path.join(build_dir, "digests.json")
    known = {}
    if os.path.exists(store):
        with open(store) as handle:
            known = json.load(handle)
    key = f"{sha256(binary)}:{workload}:{seed}"
    previous = known.setdefault(key, value)
    with open(store, "w") as handle:
        json.dump(known, handle, indent=1, sort_keys=True)
    if previous != value:
        print(f"violation: digest {value} differs from {previous} recorded "
              f"earlier for {workload} seed {seed}", file=sys.stderr)
        return False
    return True


def main():
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    repo_dir = os.path.dirname(bench_dir)
    for needed in ("src/CMakeLists.txt", "src/core/testbed.cc"):
        if not os.path.isfile(os.path.join(repo_dir, needed)):
            fail(f"simulator sources not found ({needed}); run from a "
                 "checkout of the repository")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    fresh = not os.path.exists(os.path.join(build_dir, "perfbench"))
    binary = build(bench_dir, build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.tsv")]
    limit = BUILD_RUN_LIMIT_S if fresh else RUN_LIMIT_S
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=max(10.0, limit - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 1)
    if run.returncode != 0:
        fail(f"benchmark exited with {run.returncode}", 1)

    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing", 1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 1)
    for line in lines[:-1]:
        print(line)
        if line.startswith("perfbench-digest ") and not check_digest(
                build_dir, binary, line):
            result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()

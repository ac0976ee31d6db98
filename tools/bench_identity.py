#!/usr/bin/env python3
"""Byte-identity gate over every deterministic bench output.

    tools/bench_identity.py BUILD_DIR           # check; exit 1 on any change
    tools/bench_identity.py BUILD_DIR --write   # rewrite bench/outputs.sha256

BUILD_DIR is a configured and built tree of this repository (the CI
bench-gates job uses a Release build). In a temporary directory the script
runs every bench binary except the wall-clock microbench_hostpath, at the
knobs the bench-gates job uses, plus the three bxmon invocations of that
job and two bxmon window dumps in which many windows carry no link
traffic. It hashes each run's stdout and every file the run writes: the
BENCH_*.json reports and bxmon's Perfetto JSON, Prometheus exposition and
telemetry TSV.

All of these run in simulated time with fixed seeds, so a change that
keeps the model's behaviour keeps every hash. A change that moves an
output updates bench/outputs.sha256 (--write) in the same commit and says
why. Printed doubles can depend on the compiler, so the file's header
records the compiler and build type that produced it; a check with a
different toolchain says so next to any mismatch.
"""

import argparse
import concurrent.futures
import glob
import hashlib
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HASH_FILE = os.path.join(REPO, "bench", "outputs.sha256")

# (run name, binary under BUILD_DIR, arguments). Knobs match bench-gates.
RUNS = [
    ("fig1_motivation", "bench/fig1_motivation", ["ops=2000"]),
    ("fig5_payload_sweep", "bench/fig5_payload_sweep", ["ops=2000"]),
    ("table1_overheads", "bench/table1_overheads", []),
    ("fig6_kvssd", "bench/fig6_kvssd", []),
    ("fig7_csd", "bench/fig7_csd", []),
    ("ablation_arbitration", "bench/ablation_arbitration", []),
    ("ablation_chunk_batch", "bench/ablation_chunk_batch", []),
    ("ablation_ftl", "bench/ablation_ftl", []),
    ("ablation_hybrid", "bench/ablation_hybrid", []),
    ("ablation_page_granularity", "bench/ablation_page_granularity", []),
    ("ablation_partial_write", "bench/ablation_partial_write", []),
    ("ablation_pcie_gen", "bench/ablation_pcie_gen", []),
    ("ablation_read_path", "bench/ablation_read_path", ["ops=20000"]),
    ("ablation_reassembly", "bench/ablation_reassembly", []),
    ("ablation_sgl", "bench/ablation_sgl", []),
    ("policy_adaptive", "bench/policy_adaptive", ["ops=2000"]),
    ("tenant_isolation", "bench/tenant_isolation", ["ops=20000"]),
    ("microbench_multiqueue", "bench/microbench_multiqueue",
     ["ops=8192", "scaling_json=BENCH_multiqueue.json"]),
    ("bxmon_sweep", "tools/bxmon",
     ["ops=1000", "payload=256", "qd=4", "queues=2", "reads=500",
      "perfetto=bxmon-trace.json", "prom=bxmon-metrics.prom",
      "tsv=bxmon-windows.tsv"]),
    ("bxmon_waits", "tools/bxmon", ["waits", "ops=500", "qd=8"]),
    ("bxmon_policy", "tools/bxmon", ["policy", "ops=800", "qd=8"]),
    # Window dumps with many windows that carry no link traffic (49,738
    # of 65,536 and 1,323 of 4,004): the first overflows the ring, the
    # second runs the adaptive policy's window observer.
    ("bxmon_idle_ring", "tools/bxmon",
     ["ops=800", "qd=8", "window=500", "tsv=bxmon-windows.tsv"]),
    ("bxmon_idle_policy", "tools/bxmon",
     ["policy", "ops=800", "qd=8", "window=1000", "tsv=bxmon-windows.tsv"]),
]


def run_one(build_dir, workdir, run):
    """Runs one binary in its own directory; returns {artifact: sha256}."""
    name, binary, args = run
    cwd = os.path.join(workdir, name)
    os.makedirs(cwd, exist_ok=True)
    with open(os.path.join(cwd, "stdout"), "wb") as out:
        code = subprocess.run([os.path.join(build_dir, binary)] + args,
                              cwd=cwd, stdout=out,
                              stderr=subprocess.DEVNULL).returncode
    if code != 0:
        raise RuntimeError(f"{name} exited {code}")
    hashes = {}
    for file in sorted(os.listdir(cwd)):
        with open(os.path.join(cwd, file), "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        hashes[f"{name}/{file}"] = digest
    return hashes


def toolchain(build_dir):
    """The header lines naming the compiler, build type and flags."""
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as handle:
        for line in handle:
            match = re.match(r"([A-Z_]+):[A-Z]+=(.*)", line.strip())
            if match:
                cache[match.group(1)] = match.group(2)
    compiler = "unknown"
    for path in glob.glob(os.path.join(build_dir, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as handle:
            text = handle.read()
        cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if cid and version:
            names = {"GNU": "g++", "Clang": "clang++"}
            compiler = f"{names.get(cid.group(1), cid.group(1))} " \
                       f"{version.group(1)}"
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")]))
    return [f"compiler: {compiler}", f"build type: {build_type}",
            f"flags: {flags}"]


def read_hash_file():
    header, hashes = [], {}
    with open(HASH_FILE) as handle:
        for line in handle:
            line = line.rstrip("\n")
            key = line[2:].split(":")[0]
            if line.startswith("# ") and key in ("compiler", "build type",
                                                 "flags"):
                header.append(line[2:])
            elif line and not line.startswith("#"):
                digest, artifact = line.split(None, 1)
                hashes[artifact] = digest
    return header, hashes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build_dir")
    parser.add_argument("--write", action="store_true",
                        help="rewrite bench/outputs.sha256")
    options = parser.parse_args()
    build_dir = os.path.abspath(options.build_dir)
    missing = sorted({binary for _, binary, _ in RUNS if not os.access(
        os.path.join(build_dir, binary), os.X_OK)})
    if missing:
        print("bench_identity: not built: " + " ".join(missing),
              file=sys.stderr)
        return 2

    hashes = {}
    with tempfile.TemporaryDirectory(prefix="bench_identity_") as workdir:
        jobs = max(1, min(4, os.cpu_count() or 1))
        with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
            for result in pool.map(
                    lambda run: run_one(build_dir, workdir, run), RUNS):
                hashes.update(result)

    header = toolchain(build_dir)
    if options.write:
        with open(HASH_FILE, "w") as handle:
            handle.write("# sha256 of every deterministic bench output; "
                         "check or rewrite with\n"
                         "# tools/bench_identity.py BUILD_DIR [--write]\n")
            for line in header:
                handle.write(f"# {line}\n")
            for artifact in sorted(hashes):
                handle.write(f"{hashes[artifact]}  {artifact}\n")
        print(f"bench_identity: wrote {len(hashes)} hashes to "
              f"{os.path.relpath(HASH_FILE, REPO)}")
        return 0

    recorded_header, recorded = read_hash_file()
    changed = sorted(a for a in hashes
                     if a in recorded and hashes[a] != recorded[a])
    new = sorted(a for a in hashes if a not in recorded)
    gone = sorted(a for a in recorded if a not in hashes)
    for label, artifacts in (("changed", changed), ("new", new),
                             ("missing", gone)):
        for artifact in artifacts:
            print(f"{label}: {artifact}")
    if not (changed or new or gone):
        print(f"bench_identity: all {len(hashes)} outputs identical")
        return 0
    if recorded_header != header:
        print("bench_identity: recorded with " + "; ".join(recorded_header) +
              ", checked with " + "; ".join(header))
    print(f"bench_identity: {len(changed) + len(new) + len(gone)} of "
          f"{len(recorded)} outputs differ; if intended, rerun with --write "
          "and explain the change")
    return 1


if __name__ == "__main__":
    sys.exit(main())

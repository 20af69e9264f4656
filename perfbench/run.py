#!/usr/bin/env python3
"""End-to-end benchmark of HawkSim over four pinned paper grid points.

Run from the repository root:

    python3 perfbench/run.py --workload hetero-cg --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --pin 0-31,42      # regenerate pinned digests

Builds the `perfbench` program from source on first use (CMake, Release,
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs
one workload in one process and relays its output. The last line of
stdout is the result object {"correct", "attempted", "failed",
"metrics"}. Exits non-zero, printing no result, when the build or the
program fails. See perfbench/README.md for workloads and metrics.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = os.path.join(HERE, "pinned_digests.txt")
WORKLOADS = ["hetero-cg", "nested-cg", "overcommit-swap", "redis-bloat"]
# The grid points' own definitions, which src/scenario.cc copies.
GRID_SOURCES = ["bench/fig1_redis_rss.cc", "bench/fig8_heterogeneous.cc",
                "bench/fig9_virtualization.cc", "bench/fig11_overcommit.cc"]
SOURCES_TAG = "# grid-sources sha256 "


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def jobs():
    return max(1, min(4, os.cpu_count() or 1))


def grid_sources_hash():
    h = hashlib.sha256()
    for rel in GRID_SOURCES:
        path = os.path.join(ROOT, rel)
        if not os.path.isfile(path):
            fail("grid point source %s not found" % rel)
        h.update(rel.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def check_grid_sources():
    """Refuse to run when a grid point changed since the pins were made."""
    with open(PINNED) as f:
        tags = [l[len(SOURCES_TAG):].strip() for l in f
                if l.startswith(SOURCES_TAG)]
    if tags != [grid_sources_hash()]:
        fail("one of %s changed since the digests were pinned; run the "
             "fidelity self-test (ctest --test-dir %s) and, if the "
             "scenarios still match, re-pin with: "
             "python3 perfbench/run.py --pin 0-31,42"
             % (", ".join(GRID_SOURCES), build_dir()))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure once, then bring the program up to date; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(jobs())])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)
    return os.path.join(out, "perfbench")


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def pin(exe, seeds):
    """Rewrite pinned_digests.txt with one digest per (workload, seed)."""
    def one(args):
        wl, seed = args
        res = subprocess.run([exe, "--workload", wl, "--seed", str(seed),
                              "--digest-only"],
                             capture_output=True, text=True)
        if res.returncode != 0:
            fail("digest of %s seed %d failed: %s"
                 % (wl, seed, res.stderr.strip()))
        return res.stdout.strip()

    tasks = [(wl, s) for wl in WORKLOADS for s in seeds]
    with concurrent.futures.ThreadPoolExecutor(jobs()) as pool:
        lines = list(pool.map(one, tasks))
    with open(PINNED, "w") as f:
        f.write("# workload master-seed digest (perfbench --digest-only)\n")
        f.write(SOURCES_TAG + grid_sources_hash() + "\n")
        f.write("\n".join(lines) + "\n")
    print("pinned %d digests in %s" % (len(lines), PINNED))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--pin", metavar="SEEDS",
                    help="regenerate pinned digests for seeds like 0-31,42")
    args = ap.parse_args()

    if not args.pin:
        if not args.workload:
            ap.error("--workload is required")
        check_grid_sources()
    exe = build()
    if args.pin:
        pin(exe, parse_seeds(args.pin))
        return
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pinned", PINNED]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.splitlines()
    sys.stdout.write(res.stdout)
    if res.returncode != 0 or not lines:
        fail("perfbench exited with code %d" % res.returncode)
    json.loads(lines[-1])  # the result line must parse


if __name__ == "__main__":
    main()

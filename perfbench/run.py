#!/usr/bin/env python3
"""The MEMCON end-to-end benchmark: one command for the four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign_flat --seed 1 \\
        --seconds 10 --trace 0

Builds the driver (perfbench/CMakeLists.txt, Release, straight from
../src) into $CARGO_TARGET_DIR or .bench_build on first use, runs one
workload and prints the driver's report followed, as the last line, by
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end_to_end ones of BENCHMARK.json,
with --trace 1 the per_layer ones. The full result (host fingerprint,
every metric, the output checks) and, when traced, the span file are
kept under <build dir>/results. Exits non-zero if the build fails or
an output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_timeout(seconds):
    """Time allowed to the driver: the budget, which a run may overrun
    by up to one pass, another budget for a traced run's extra work,
    and a fixed margin for set-up and checks."""
    return 2.0 * seconds + 120.0


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def git_commit():
    """HEAD's commit, read from .git directly (no git process that
    could wander out of the checkout); "unknown" outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build(build_root):
    """Configure once, then let the build tool decide what is stale.
    Build logs go to stderr so stdout ends with the result line."""
    cmake_dir = os.path.join(build_root, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            fail("configure failed")
    cmd = ["cmake", "--build", cmake_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(cmake_dir, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("no BENCHMARK.json at " + ROOT)
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no MEMCON sources under " + os.path.join(ROOT, "src"))

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    driver = build(build_root)
    out_dir = os.path.join(build_root, "results")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--commit", git_commit()]
    timeout = run_timeout(args.seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %.0f s" % timeout)
    sys.stdout.write(proc.stdout)
    result_path = os.path.join(out_dir, "result-%s-%d-t%d.json" % (
        args.workload, args.seed, args.trace))
    if proc.returncode not in (0, 1) or not os.path.exists(result_path):
        fail("driver exited with %d and no result" % proc.returncode)
    with open(result_path) as f:
        result = json.load(f)

    # Every declared metric must come from the driver under its
    # declared unit; a per-layer metric the driver does not report is
    # a layer this workload makes no call into, reported as 0.
    metrics = {}
    if args.trace == 0:
        for m in spec["end_to_end"]:
            got = result["end_to_end"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                fail("driver did not report %s in %s" % (m["name"], m["unit"]))
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    else:
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = set(result["per_layer"]) - set(declared)
        if unknown:
            fail("undeclared per-layer metrics: " + ", ".join(sorted(unknown)))
        for name, unit in declared.items():
            metrics[name] = {"value": result["per_layer"].get(name, 0.0),
                             "unit": unit}

    correct = proc.returncode == 0 and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload and seed.

Run from the root of a checkout:

    python3 bench/e2e/run.py --workload tpcc_command --seed 1 --seconds 20 --trace 0

It builds bench/e2e (CMake, Release) into $CARGO_TARGET_DIR/e2e-<key>
(default build/e2e-<key>), where <key> is a hash of the checkout's path,
so two checkouts sharing one build root never measure each other's code.
Then it runs bench_e2e and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1 its
per_layer metrics. The bench_e2e output (`metric ...`, `check ...`) is
echoed above it. Exits non-zero, printing no JSON, if the build fails, a
correctness check fails, or a metric named in BENCHMARK.json is missing.
--out PATH also keeps the full run record (every metric, every check),
which is what compare.py reads.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Whole-invocation budgets: a run that has to build first may take 900 s,
# any other run 180 s. Both keep a few seconds in hand.
FIRST_RUN_BUDGET_S = 890
RUN_BUDGET_S = 175


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"timed out after {timeout}s: {' '.join(cmd)}", file=sys.stderr)
        return 124
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(build_dir, deadline):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = run(["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"], deadline - time.monotonic(),
                 sys.stderr)
        if rc != 0:
            # A failed configure must not leave a cache that skips it next time.
            shutil.rmtree(build_dir, ignore_errors=True)
            return rc
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", build_dir, "-j", jobs],
               deadline - time.monotonic(), sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full run record here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    key = hashlib.sha1(os.path.realpath(HERE).encode()).hexdigest()[:12]
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", "build"),
                             "e2e-" + key)
    fresh = not os.path.exists(os.path.join(build_dir, "bench_e2e"))
    deadline = time.monotonic() + (FIRST_RUN_BUDGET_S if fresh else RUN_BUDGET_S)
    # Leave the run itself at least 60 s of the budget.
    rc = build(build_dir, deadline - 60)
    if rc != 0:
        print(f"build failed ({rc})", file=sys.stderr)
        return 1

    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, f"{args.workload}-{args.seed}-{args.trace}")
    if os.path.exists(stem + ".json"):
        os.remove(stem + ".json")  # Never report an earlier run's record.
    cmd = [os.path.join(build_dir, "bench_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--dir", os.path.join(build_dir, "scratch"),
           "--out", stem + ".json"]
    if args.trace:
        cmd += ["--trace", stem + ".trace.json"]
    sys.stdout.flush()
    rc = run(cmd, deadline - time.monotonic(), sys.stdout)
    if rc != 0:
        print(f"bench_e2e failed ({rc})", file=sys.stderr)
        return 1

    with open(stem + ".json") as f:
        record = json.load(f)
    missing = [m["name"] for m in wanted if m["name"] not in record["metrics"]]
    if missing:
        print(f"metrics missing from the run: {missing}", file=sys.stderr)
        return 1
    if args.out:
        shutil.copyfile(stem + ".json", args.out)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: record["metrics"][m["name"]] for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

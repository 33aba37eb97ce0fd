#!/usr/bin/env python3
"""Self-test of the benchmark's determinism guarantees.

Run from the root of the repository:

    python3 perfbench/selftest.py [--seconds 4]

For every workload it makes three short traced runs in a fresh state
directory and fails unless:

  * every run is correct (all output checks pass). The two seed-1 runs
    share a source id, so the driver's ledger already fails the second one
    if its output digests or deterministic counts differ from the first's;
  * the two seed-1 runs report identical per-layer counts (metrics with
    unit "count"), which the ledger does not hold;
  * a second seed yields a different input digest with the same input shape.

serve-burst's racy counts at workers > 1 (its hit ratio and plans per unique
key) are ratios, so they are reported by the driver but not compared here.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import run as bench

SEEDS = (1, 1, 2)


def run_driver(build_dir, state_dir, workload, seed, seconds):
    cmd = [os.path.join(build_dir, "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
           "--state-dir", state_dir, "--source-id", "selftest"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=bench.RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    inputs = next((l for l in lines if l.startswith("inputs ")), "")
    digest, _, shape = inputs[len("inputs "):].partition(": ")
    counts = {k: v["value"] for k, v in result.get("metrics", {}).items() if v["unit"] == "count"}
    return proc.returncode, result, digest, shape, counts, proc.stderr


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=4)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(bench.ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    if not bench.build(build_dir):
        print("selftest: build failed", file=sys.stderr)
        return 3
    state_dir = os.path.join(build_dir, "selftest-state")
    shutil.rmtree(state_dir, ignore_errors=True)

    failures = []
    for workload in bench.WORKLOADS:
        before = len(failures)
        runs = [run_driver(build_dir, state_dir, workload, seed, args.seconds) for seed in SEEDS]
        for seed, (code, result, _, _, _, stderr) in zip(SEEDS, runs):
            if code != 0 or not result.get("correct"):
                failures.append("%s seed %d: run incorrect (exit %d)\n%s"
                                % (workload, seed, code, stderr.strip()))
        first, again, other = runs
        if first[4] != again[4]:
            failures.append("%s: per-layer counts differ between identical runs: %s vs %s"
                            % (workload, first[4], again[4]))
        if first[2] == other[2]:
            failures.append("%s: seeds %d and %d gave the same inputs %s"
                            % (workload, SEEDS[0], SEEDS[2], first[2]))
        if first[3] != other[3]:
            failures.append("%s: input shape changed with the seed: %r vs %r"
                            % (workload, first[3], other[3]))
        print("%-15s %s" % (workload, "ok" if len(failures) == before else "FAILED"), flush=True)

    for f in failures:
        print("SELFTEST FAILED: " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

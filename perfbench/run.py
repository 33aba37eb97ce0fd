#!/usr/bin/env python3
"""Builds the benchmark driver and runs one workload of the benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 15 --trace 0

The driver is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the library from src/. It is built into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on the first run
and brought up to date on later ones. Build output goes to stderr, so the
last line of stdout is the driver's JSON result; a failed build prints
nothing to stdout. The driver keeps its ledger of output digests and the
traced-run report (trace_report.json) under that directory's state/ folder.

Exit codes: the driver's own (0 correct, 1 an output check failed, 2 bad
arguments), 3 when the build fails and 4 when the driver overruns its time.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan-cold", "serve-warm", "serve-burst", "scenario-churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_process(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def source_id():
    """Digest of every library and benchmark source file: the ledger key."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code = run_process(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                           BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code = run_process(["cmake", "--build", build_dir, "--target", "perfbench_driver", "-j", jobs],
                       BUILD_TIMEOUT_S, sys.stderr)
    return code == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", os.path.join(build_dir, "state"), "--source-id", source_id()]
    sys.stdout.flush()
    code = run_process(cmd, RUN_TIMEOUT_S, sys.stdout)
    if code is None:
        print("perfbench: driver overran %d s and was killed" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())

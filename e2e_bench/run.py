#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the repository root.

    python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

<name> is algo1-tus, serve-zipf or serve-churn; "all" runs the three in
turn. Every call configures and builds the dust library and the benchmark into
$CARGO_TARGET_DIR (default .bench_build); after the first, that only
rebuilds what changed. Build output and the helper self-tests go to stderr,
so the last stdout line is the JSON result of the run.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["algo1-tus", "serve-zipf", "serve-churn"]


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures and builds; returns False on any failure."""
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("e2e_bench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main(argv):
    out = build_dir()
    if not build(out):
        return 1
    if subprocess.run([os.path.join(out, "e2e_bench_selftest")],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        print("e2e_bench: helper self-tests failed", file=sys.stderr)
        return 1
    args = list(argv)
    workloads = [None]
    if "--workload" in args[:-1]:
        at = args.index("--workload") + 1
        if args[at] == "all":
            workloads = WORKLOADS
    status = 0
    for workload in workloads:
        if workload is not None:
            args[at] = workload
        sys.stdout.flush()
        code = subprocess.run([os.path.join(out, "e2e_bench")] + args).returncode
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Build and run the end-to-end benchmark; README.md describes it.

    python3 perf_e2e/run.py --workload pai-200k --seed 1 --seconds 45 --trace 0

Run from the repository root. The program and the library it measures are
built from source, in Release mode, under $CARGO_TARGET_DIR (default
.bench_build). Build output goes to stderr; the benchmark's own output,
ending in one JSON line, goes to stdout.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perf_e2e")
    work_dir = os.path.join(build_root, "perf_e2e-runs")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perf_e2e",
                  "-j", "4"])
    for step in steps:
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            print(f"perf_e2e: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return built.returncode or 1
    os.makedirs(work_dir, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([
        os.path.join(build_dir, "perf_e2e"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", work_dir,
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())

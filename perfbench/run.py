#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload dblp_query --seed 1 --seconds 28 --trace 0
  python3 perfbench/run.py --self-check

The first form builds the benchmark package (perfbench/CMakeLists.txt, which
compiles the library from src/) into .bench_build/perfbench, runs one
workload, and passes its output through: the last line of stdout is the JSON
result. It exits non-zero if the build fails, an answer is wrong, or a check
fails.

--self-check runs every workload at tiny scale, traced and untraced, and
checks that each run is correct, has no failed operation, and prints exactly
the metrics BENCHMARK.json names, with their units.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "vist_perfbench")
WORKLOADS = ("dblp_query", "dblp_hot", "xmark_churn")
RUN_TIMEOUT_S = 170
SELF_CHECK_SCALE = "0.05"
SELF_CHECK_SECONDS = "1"


def build():
    """Configures and builds the benchmark; build logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", PACKAGE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ):
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def run(workload, seed, seconds, trace, scale=None):
    """Runs one workload; returns (exit code, stdout text)."""
    work_dir = os.path.join(ROOT, ".bench_build", f"work-{os.getpid()}")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir]
    if str(trace) == "1":
        cmd += ["--span-file",
                os.path.join(ROOT, ".bench_build", f"spans-{workload}.tsv")]
    if scale is not None:
        cmd += ["--scale", scale]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        return done.returncode, done.stdout
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 1, ""
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            label = f"{workload} --trace {trace}"
            code, out = run(workload, 1, SELF_CHECK_SECONDS, trace,
                            SELF_CHECK_SCALE)
            found = check_result(code, out, expected[trace])
            problems += [f"{label}: {problem}" for problem in found]
            print(f"{label}: {'ok' if not found else 'FAILED'}",
                  file=sys.stderr)
    for problem in problems:
        print(f"perfbench self-check: {problem}", file=sys.stderr)
    return 1 if problems else 0


def check_result(code, out, expected_units):
    """Problems with one run's exit code and result line."""
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        return [f"exit code {code}"]
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"]:
        problems.append("wrong answers")
    if result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{result['failed']} of {result['attempted']} "
                        "operations failed")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected_units:
        problems.append("metrics differ from BENCHMARK.json")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_check:
        return self_check()
    code, out = run(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())

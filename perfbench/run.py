#!/usr/bin/env python3
"""Build and run the graphio benchmark.

    python3 perfbench/run.py --workload stream-patch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is its own CMake package
(perfbench/CMakeLists.txt): it builds the library from ../src as a Release
build under .bench_build/perfbench, then runs the perfbench binary, whose
last stdout line is the JSON result. The metric names in that line are
checked against BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
# Time allowed beyond the measured phases: the set-ups plus the untimed
# checks and replay measurements.
SETUP_MARGIN_S = 120


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src", "graphio")):
        log(f"no graphio sources under {ROOT}; nothing to benchmark")
        sys.exit(2)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(workload, seed, seconds, trace):
    command = [os.path.join(BUILD, "perfbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0", "--commit", commit(),
               "--workdir", WORK]
    # --trace 1 measures an untraced and a traced phase of --seconds each.
    timeout = (2 if trace else 1) * seconds + SETUP_MARGIN_S
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {timeout:g} s; killed")
        return 1
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode != 0:
        log(f"perfbench exited with {result.returncode}")
        return result.returncode
    lines = result.stdout.strip().splitlines()
    outcome = json.loads(lines[-1]) if lines else {}
    expected = declared_metrics(trace)
    if expected is not None and sorted(outcome.get("metrics", {})) != sorted(expected):
        log("metric names differ from BENCHMARK.json")
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark helpers' self-test")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload or --selftest is required")

    build()
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    workloads = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for workload in workloads:
        status = run_workload(workload, args.seed, args.seconds, args.trace == 1) or status
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one workload at a time.

    python3 perfbench/spread.py --workload bound-cold --runs 10 [--first-seed 1]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1,
sequentially) and prints, per end-to-end metric, the median, the quartile
spread (Q3 - Q1) / median as Python's statistics.quantiles(n=4) gives it,
and the metric's bound from BENCHMARK.json. A steady benchmark keeps every
spread but setup_s's below a third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        outcome = json.loads(result.stdout.strip().splitlines()[-1])
        if not outcome["correct"] or outcome["failed"]:
            print(f"seed {seed}: incorrect run", file=sys.stderr)
            return 1
        for name, metric in outcome["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in outcome["metrics"].items()),
            flush=True)

    status = 0
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        q1, q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / q2
        steady = metric["name"] == "setup_s" or spread < metric["bound"] / 3
        status = status or (0 if steady else 1)
        print(f"{metric['name']:16} median {q2:12.6g}  spread {spread:7.4f}  "
              f"bound {metric['bound']:.2f}  {'ok' if steady else 'WIDE'}")
    return status


if __name__ == "__main__":
    sys.exit(main())

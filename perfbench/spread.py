"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --runs 10 [--workloads a b]

Each run lasts ``run_seconds`` of ``BENCHMARK.json``.  Runs use seeds
1..runs and interleave the workloads (seed 1 of every workload, then seed 2,
...) so that a slow phase of a shared host hits every workload alike.  For each workload and end-to-end metric it prints the
median of the runs, the distance between the first and third quartile as a
share of the median (``statistics.quantiles(values, n=4)``), and that share
against the bound in ``BENCHMARK.json``; ``ok`` means the spread is below a
third of the bound.  It also prints the medians of the unscaled pass and
largest-member times next to the scaled ones.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


RAW_LINE = re.compile(r"raw (pass_s|largest_s) samples: median (\S+)")


def run_once(workload, seed, seconds):
    """The result of one run, with the medians of its unscaled times added."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True)
    result = json.loads(done.stdout.splitlines()[-1])
    result["raw"] = {name: float(value)
                     for name, value in RAW_LINE.findall(done.stdout)}
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    results = {workload: [] for workload in args.workloads}
    for seed in range(1, args.runs + 1):
        for workload in args.workloads:
            start = time.perf_counter()
            result = run_once(workload, seed, spec["run_seconds"])
            results[workload].append(result)
            values = {k: round(m["value"], 6) for k, m in result["metrics"].items()}
            raw = {k: round(v, 6) for k, v in result["raw"].items()}
            print(f"seed {seed} {workload} ({time.perf_counter() - start:.1f} s): "
                  f"correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values} "
                  f"raw {raw}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n{'workload':14s} {'metric':14s} {'median':>14s} {'unit':6s} "
          f"{'spread':>8s} {'bound':>6s}  verdict   (runs={args.runs})")
    for workload, runs in results.items():
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            share = spread(values) if len(values) > 1 else float("nan")
            verdict = ("n/a" if len(values) < 2 else "ok" if share < bound / 3
                       else "within" if share <= bound else "WIDE")
            unit = runs[0]["metrics"][name]["unit"]
            print(f"{workload:14s} {name:14s} {statistics.median(values):14.6f} "
                  f"{unit:6s} {share:8.4f} {bound:6.3f}  {verdict}")

    print(f"\n{'workload':14s} {'time':10s} {'scaled':>10s} {'raw':>10s} "
          f"{'raw spread':>10s}  (medians over runs)")
    for workload, runs in results.items():
        for name in ("pass_s", "largest_s"):
            raw = [run["raw"][name] for run in runs]
            scaled = statistics.median(run["metrics"][name]["value"] for run in runs)
            share = spread(raw) if len(raw) > 1 else float("nan")
            print(f"{workload:14s} {name:10s} {scaled:10.4f} "
                  f"{statistics.median(raw):10.4f} {share:10.4f}")


if __name__ == "__main__":
    main()

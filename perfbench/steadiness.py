"""Steadiness report: run one workload N times and summarize the spread.

Run from the root of a checkout::

    python3 perfbench/steadiness.py --workload gen-small --runs 10

Each run is ``perfbench/run.py --trace 0`` with its own ``--seed``
(1 to N) and the ``run_seconds`` of BENCHMARK.json.
For each end-to-end metric the report gives the median of the runs,
the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), max/min and the bound
BENCHMARK.json sets; ``steady`` means the spread is below a third of
the bound.  The bounds are set from these numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, IQR / median, max / min)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median, max(values) / min(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in range(1, args.runs + 1):
        result = run_once(args.workload, seed, bench["run_seconds"])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: {result['failed']} cells failed")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={values[name][-1]:.4f}" for name in bounds),
            file=sys.stderr, flush=True)

    print(f"## {args.workload}: {args.runs} runs, seeds "
          f"1-{args.runs}, "
          f"{bench['run_seconds']} s each\n")
    print("| metric | median | IQR/median | max/min | bound | steady |")
    print("|---|---|---|---|---|---|")
    for name, bound in bounds.items():
        median, iqr, ratio = spread(values[name])
        steady = "yes" if iqr < bound / 3 else "no"
        print(f"| {name} | {median:.4f} | {iqr:.4f} | {ratio:.4f} "
              f"| {bound} | {steady} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

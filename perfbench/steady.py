"""Steadiness check: repeated runs per workload, spread against bounds.

    python3 perfbench/steady.py --runs 10 [--workload sim-farm ...]

Runs ``perfbench/run.py`` once per seed (seeds 1..runs) for each
workload, one run at a time, for ``run_seconds`` of ``BENCHMARK.json``,
and prints for every end-to-end metric its median, quartiles and
quartile spread as a share of the median next to its bound there.  A
spread wider than a third of its bound is flagged, and the command
then exits with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = 0
    for workload in args.workload or names:
        results = []
        for seed in range(1, args.runs + 1):
            result = one_run(workload, seed, spec["run_seconds"])
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: run not correct")
            results.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ), flush=True)
        fail_share = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: failed share per run {sorted(fail_share)}")
        print(f"{'metric':22s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, share = spread(values)
            flag = ""
            if share > bound / 3:
                flag = "  > bound/3"
                flagged += 1
            print(f"{name:22s} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{share:8.2%} {bound:6.2f}{flag}")
        print(flush=True)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

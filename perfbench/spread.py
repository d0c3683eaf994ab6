"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 --seconds 30 [--trace 0|1]
        [--workload NAME ...] [--json OUT.json]

Runs are interleaved across workloads (seed 1 on every workload, then seed
2, ...), so host drift lands on all workloads alike.  For each workload and
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the distance between them as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    parser.add_argument("--json", type=Path, help="also write every run's result here")
    args = parser.parse_args()

    workloads = args.workload or list(run.WORKLOADS)
    results: dict[str, list[dict]] = {name: [] for name in workloads}
    for seed in args.seeds:
        for name in workloads:
            argv = [
                sys.executable, str(run.HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            done = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=True)
            *_, context, last = done.stdout.strip().splitlines()
            result = json.loads(last)
            result["seed"] = seed
            result["host.calib_s"] = json.loads(context)["host.calib_s"]
            results[name].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values if not args.trace else ''}",
                  flush=True)
    if args.json:
        args.json.write_text(json.dumps(results, indent=1) + "\n")
    for name, runs in results.items():
        calib = statistics.median(r["host.calib_s"] for r in runs)
        print(f"\n{name}: {len(runs)} runs, median host.calib_s {calib:.4f}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            share = (q3 - q1) / median if median else 0.0
            print(f"  {metric:40s} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {share:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

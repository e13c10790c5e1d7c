#!/usr/bin/env python3
"""Run the benchmark several times and report each metric's spread.

    python3 perfbench/spread.py --workload dc_serial [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0]

Each run gets its own seed.  For every metric it prints the median and the
distance between the first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json; a spread over a third of the bound is flagged.  Run it from
the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"run {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"run {seed} reported incorrect output:\n{out.stderr[-2000:]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}"
                                           for k, v in result["metrics"].items()),
              file=sys.stderr)

    print(f"{'metric':34} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = " !" if bound is not None and name != "setup_s" and spread > bound / 3 else ""
        print(f"{name:34} {med:14.6g} {spread:11.4f} {bound if bound is not None else '-':>6}{flag}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload warm_replay --seeds 1-10 [--seconds 10] [--trace 0]

For every metric, prints the median of the runs and the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of
that median, next to the metric's bound from BENCHMARK.json. Run from the
repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=seeds, help="e.g. 1-10")
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", default="0", choices=("0", "1"))
    args = p.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.stderr.write(out.stderr[-2000:])
            print(f"seed {seed}: failed with exit code {out.returncode}")
            return 1
        result = json.loads(last)
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    print(f"\n{'metric':<24} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(k)
        flag = "" if bound is None or share < bound / 3 else "  <- above a third of the bound"
        print(f"{k:<24} {med:>14.6g} {share:>11.4f} {bound if bound is not None else '-':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

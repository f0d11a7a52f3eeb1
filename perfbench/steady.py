#!/usr/bin/env python3
"""Runs one workload on several seeds and reports each metric's spread.

    python3 perfbench/steady.py --workload train --seeds 1-10 [--trace 0]

For every metric: the median of the per-seed values and the distance
between their first and third quartiles (statistics.quantiles, n=4) as a
share of that median, next to the metric's bound from BENCHMARK.json.
Run from the root of a checkout; each seed is one perfbench/run.py call.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds_from(args.seeds):
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        result = json.loads(out.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: checks failed\n{out.stderr}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
            flush=True)

    print(f"\n{'metric':34s} {'median':>12s} {'iqr/median':>11s} {'bound':>6s}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:34s} {med:12.6g} {spread:11.4f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

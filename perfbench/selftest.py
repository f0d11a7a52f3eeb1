#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py [--seconds 1] [--workloads train,flow]

Checks BENCHMARK.json's shape, then runs every workload run.py accepts (the
declared ones and those kept out of BENCHMARK.json) with --trace 0 and
--trace 1 and checks that each run is correct, emits each declared metric
exactly once with its declared unit and a name matching [A-Za-z0-9_.-]+,
and that each traced run's Chrome trace renders with rlccd_report. Exits 1
on the first failure.
"""
import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TRACE_DIR = ROOT / ".bench_build" / "perfbench-trace"
REPORT = ROOT / ".bench_build" / "perfbench" / "rlccd_report"


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def unique_pairs(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise ValueError(f"duplicate keys {sorted(dup)}")
    return dict(pairs)


def check_manifest(bench):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(bench) != keys:
        fail(f"BENCHMARK.json keys {sorted(bench)}")
    names = []
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            fail(f"workload entry {w}")
        names.append(w["name"])
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end_to_end entry {m}")
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per_layer entry {m}")
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for n in names:
        if not NAME.fullmatch(n) or len(n) > 64:
            fail(f"bad name {n!r}")
    if len(names) != len(set(names)):
        fail("a name is used twice")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be declared in s, lower is better")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        fail(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr}")
    try:
        return json.loads(lines[-1], object_pairs_hook=unique_pairs)
    except ValueError as e:
        fail(f"{workload} trace={trace}: last line is not a result: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(),
                       object_pairs_hook=unique_pairs)
    check_manifest(bench)
    declared = [w["name"] for w in bench["workloads"]]
    if not set(declared) <= set(WORKLOADS):
        fail(f"BENCHMARK.json declares workloads run.py lacks: {declared}")
    workloads = list(WORKLOADS)
    if args.workloads:
        workloads = args.workloads.split(",")

    for workload in workloads:
        for trace, schema in ((0, bench["end_to_end"]),
                              (1, bench["per_layer"])):
            result = run(workload, args.seed, args.seconds, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                fail(f"{workload} trace={trace}: checks failed")
            if not isinstance(result["attempted"], int) or result["attempted"] < 1:
                fail(f"{workload}: attempted {result['attempted']}")
            emitted = result["metrics"]
            for name in emitted:
                if not NAME.fullmatch(name):
                    fail(f"{workload}: emitted name {name!r}")
            want = {m["name"]: m["unit"] for m in schema}
            if set(emitted) != set(want):
                fail(f"{workload} trace={trace}: missing "
                     f"{sorted(set(want) - set(emitted))}, extra "
                     f"{sorted(set(emitted) - set(want))}")
            for name, m in emitted.items():
                if m["unit"] != want[name] or not isinstance(
                        m["value"], (int, float)):
                    fail(f"{workload}: {name} = {m}")
            if trace:
                path = TRACE_DIR / f"trace-{workload}-{args.seed}.json"
                out = subprocess.run([str(REPORT), str(path)],
                                     capture_output=True, text=True)
                if out.returncode != 0 or "trace events:" not in out.stdout:
                    fail(f"rlccd_report cannot render {path}: {out.stderr}")
            print(f"selftest: {workload} trace={trace}: ok, "
                  f"{len(emitted)} metrics", flush=True)
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

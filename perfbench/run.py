#!/usr/bin/env python3
"""Builds the RL-CCD benchmark from source and runs one workload.

    python3 perfbench/run.py --workload train --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the library sources plus the benchmark program and
rlccd_report) into .bench_build/perfbench; later calls reuse that build.
The benchmark's human-readable lines pass through; the last line printed is
the JSON result. With --trace 1 the traced run's Chrome trace is written
under .bench_build/perfbench-trace/ and must render with rlccd_report.

Exit status: 0 when every output check passed, 1 when a check failed (the
result line is still printed), 2 on a build or run error (nothing printed).
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "perfbench-trace"
WORKLOADS = ("train", "decode", "flow", "isolated")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then brings the two targets up to date."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4",
                  "--target", "perfbench", "rlccd_report"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def run_child(cmd):
    """Runs cmd in its own process group; returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {cmd[0]} timed out", file=sys.stderr)
        return None, ""
    return proc.returncode, out


def trace_renders(path):
    """The existing rlccd_report must load and render the trace."""
    code, out = run_child([str(BUILD / "rlccd_report"), str(path)])
    return code == 0 and "trace events:" in out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    trace_path = TRACE_DIR / f"trace-{args.workload}-{args.seed}.json"
    if args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_path)]
    code, out = run_child(cmd)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if code not in (0, 1) or result is None:
        # No result line on stdout: a crash must not pass for a measurement.
        sys.stderr.write(out)
        print(f"perfbench: benchmark run failed (exit {code})", file=sys.stderr)
        return 2

    if args.trace:
        result["attempted"] += 1
        if not trace_renders(trace_path):
            print(f"perfbench: check failed: rlccd_report cannot render "
                  f"{trace_path}", file=sys.stderr)
            result["failed"] += 1
            result["correct"] = False

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

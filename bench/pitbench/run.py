#!/usr/bin/env python3
"""Builds pitbench from this checkout, then runs it.

One workload (the last stdout line is the result JSON):
  python3 bench/pitbench/run.py --workload xf_mixed_packed --seed 1 --seconds 20 --trace 0

Every workload once, each in its own process:
  python3 bench/pitbench/run.py [--trace 1]

Median, quartiles and min/max of every metric over N runs (seeds seed ..
seed+N-1), per workload:
  python3 bench/pitbench/run.py --repeat 5 [--workload NAME]

The build lives in .bench_build/pitbench under the checkout root; it is
configured once and rebuilt incrementally on every call. PIT_* variables are
removed from the benchmark's environment, so no knob of the library changes
what it measures.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "pitbench"
BINARY = BUILD / "pitbench"
WORKLOADS = ["xf_mixed_packed", "xf_mixed_1to1", "ffn_mixed_pit", "xf_short_masked_packed"]
DEFAULT_SEED = 1
# A run must end within 180 s; the binary's own work is sized far below it.
RUN_TIMEOUT_S = 170


def default_seconds():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    except (OSError, ValueError, KeyError):
        return 20


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "pit").is_dir():
        sys.exit(f"pitbench: no library sources at {ROOT} (need CMakeLists.txt and src/pit)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release",
                      "-DBUILD_TESTING=OFF"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "pitbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the benchmark's output.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("pitbench: build failed: " + " ".join(cmd))


def bench_cmd(workload, seed, seconds, trace, trace_out=None):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    return cmd


def bench_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("PIT_")}


def run_captured(cmd):
    """Runs one benchmark process; returns (exit code, stdout, parsed result or None)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              env=bench_env())
    except subprocess.TimeoutExpired:
        return 124, "", None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, proc.stdout, result


def repeat(workloads, seed, seconds, trace, n):
    """Median, quartiles and min/max of every metric over n seeds."""
    ok = True
    print(f"{'workload':24} {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} "
          f"{'max':>12} {'iqr/med':>8}")
    for w in workloads:
        values = {}
        units = {}
        for i in range(n):
            code, _, result = run_captured(bench_cmd(w, seed + i, seconds, trace))
            if code != 0 or result is None or not result["correct"]:
                print(f"{w}: run with seed {seed + i} failed (exit {code})", file=sys.stderr)
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            print(f"{w:24} {name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(vals):12.6g} "
                  f"{max(vals):12.6g} {spread:8.3f}  {units[name]}  n={len(vals)}", flush=True)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out", help="Chrome trace-event JSON of the traced shadow run")
    parser.add_argument("--repeat", type=int, default=0, help="runs per workload, one seed each")
    args = parser.parse_args()
    if args.trace_out and not (args.workload and args.trace and not args.repeat):
        parser.error("--trace-out needs --workload, --trace 1 and no --repeat")
    seconds = args.seconds if args.seconds is not None else default_seconds()
    build()
    workloads = [args.workload] if args.workload else WORKLOADS
    if args.repeat > 0:
        sys.exit(0 if repeat(workloads, args.seed, seconds, args.trace, args.repeat) else 1)
    if args.workload:
        cmd = bench_cmd(args.workload, args.seed, seconds, args.trace, args.trace_out)
        try:
            sys.exit(subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=bench_env()).returncode)
        except subprocess.TimeoutExpired:
            sys.exit(f"pitbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    failed = []
    for w in workloads:
        code, out, _ = run_captured(bench_cmd(w, args.seed, seconds, args.trace))
        sys.stdout.write(out)
        if code != 0:
            failed.append(w)
    if failed:
        sys.exit("pitbench: failed: " + " ".join(failed))


if __name__ == "__main__":
    main()

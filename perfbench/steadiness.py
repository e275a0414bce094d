#!/usr/bin/env python3
"""Steadiness report: runs one workload N times, each in a fresh process with
its own seed, and prints per metric the median, the quartiles, the
interquartile spread (q3 - q1) / median and the full range
(max - min) / median.

Run from the repository root:

    python3 perfbench/steadiness.py --workload event_routing [--runs 10] \
        [--seconds 20] [--first-seed 1]

Each run is `run.py --trace 0` (the end-to-end metrics, which have bounds);
--seconds defaults to BENCHMARK.json's run_seconds.

Quartiles are statistics.quantiles(values, n=4), the same computation the
acceptance check of a benchmark change uses. A run that exits non-zero or
reports correct=false aborts the report.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def bench_config():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        return json.load(f)


def collect(args):
    rows = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = [line for line in proc.stdout.splitlines() if line.strip()]
        if proc.returncode != 0 or not lines:
            sys.exit(f"run with seed {seed} failed (exit {proc.returncode})")
        row = json.loads(lines[-1])
        if not row["correct"]:
            sys.exit(f"run with seed {seed} reported incorrect output")
        rows.append(row)
        print(f"seed {seed}: ok ({row['attempted']} ops)", file=sys.stderr)
    return rows


def report(rows, bounds):
    print(f"{'metric':44s} {'unit':9s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'rng/med':>8s} {'bound':>6s}")
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows if name in r["metrics"]]
        unit = rows[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(values) - min(values)) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and iqr > bound / 3:
            flag = "  > bound/3"
        print(f"{name:44s} {unit:9s} {med:12.6g} {q1:12.6g} {q3:12.6g} {iqr:8.3f} {rng:8.3f} "
              f"{bound if bound is not None else '':>6}{flag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    config = bench_config()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    if args.seconds is None:
        args.seconds = config["run_seconds"]
    report(collect(args), bounds)


if __name__ == "__main__":
    main()

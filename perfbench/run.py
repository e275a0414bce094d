#!/usr/bin/env python3
"""End-to-end benchmark of the subcover pub/sub stack.

Run from the repository root:

    python3 perfbench/run.py --workload subscription_churn|event_routing|tcp_cluster \
        --seed N --seconds S --trace 0|1

Builds the library and the benchmark driver from source into .bench_build/
(CMake, Release), runs one workload in a fresh process and prints, as the
last line of stdout, one JSON object {correct, attempted, failed, metrics}.

--trace 0 reports the end-to-end metrics of the production configuration.
--trace 1 reports the per-layer metrics: it runs the workload untraced and
then traced, each in its own process, and adds trace.overhead_share
(1 - traced / untraced ops_per_s). README.md defines every metric.

Exits non-zero, without a result line, if the build fails; exits non-zero
if any operation failed or returned a wrong result.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(REPO_ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
SCRATCH_DIR = os.path.join(BUILD_ROOT, "tmp")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("subscription_churn", "event_routing", "tcp_cluster")

_child = None


def _forward_signal(signum, _frame):
    # The driver stops its daemons on SIGINT/SIGTERM and exits; wait for it.
    if _child is not None and _child.poll() is None:
        _child.send_signal(signum)
        _child.wait()
    sys.exit(128 + signum)


def build():
    """Configures (once) and builds the driver; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_once(args, trace):
    """Runs the driver once; returns (exit code, parsed result or None)."""
    global _child
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--scratch", SCRATCH_DIR]
    _child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    out, _ = _child.communicate()
    code = _child.returncode
    _child = None
    lines = [line for line in out.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return code, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    signal.signal(signal.SIGINT, _forward_signal)
    signal.signal(signal.SIGTERM, _forward_signal)
    build()

    code, result = run_once(args, trace=False)
    if result is None:
        sys.exit(f"perfbench: the {args.workload} run printed no result (exit {code})")
    if args.trace:
        untraced_rate = result["metrics"]["ops_per_s"]["value"]
        code_t, traced = run_once(args, trace=True)
        if traced is None:
            sys.exit(f"perfbench: the traced {args.workload} run printed no result (exit {code_t})")
        metrics = traced["metrics"]
        traced_rate = metrics.pop("ops_per_s")["value"]
        metrics["trace.overhead_share"] = {
            "value": 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0,
            "unit": "ratio"}
        result = {"correct": result["correct"] and traced["correct"],
                  "attempted": result["attempted"] + traced["attempted"],
                  "failed": result["failed"] + traced["failed"],
                  "metrics": metrics}
        code = code or code_t
    print(json.dumps(result))
    sys.exit(code if code else (0 if result["correct"] and result["failed"] == 0 else 1))


if __name__ == "__main__":
    main()

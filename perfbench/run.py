#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Builds the library and the perfbench program from this checkout's sources
into .bench_build/ (Release; incremental after the first run), runs the
program, and checks that the metrics it reports are exactly the ones
BENCHMARK.json declares for the mode: end_to_end with --trace 0,
per_layer with --trace 1. The program's output is passed through, so the
last line of standard output is its JSON result. Exits non-zero when the
build fails, a correctness check fails or the metric names disagree.
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
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"

_child = None


def _stop_child(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.terminate()
        try:
            _child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            _child.kill()
            _child.wait()
    sys.exit(128 + signum)


def run_checked(cmd, **kwargs):
    """Runs cmd to completion; a signal to this process stops it too."""
    global _child
    _child = subprocess.Popen(cmd, **kwargs)
    out, _ = _child.communicate()
    code = _child.returncode
    _child = None
    return code, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no library sources next to perfbench/", file=sys.stderr)
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        code, _ = run_checked(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    signal.signal(signal.SIGTERM, _stop_child)
    signal.signal(signal.SIGINT, _stop_child)
    if not build():
        return 1

    code, out = run_checked(
        [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    results = [json.loads(line) for line in out.splitlines()
               if line.startswith('{"correct"')]
    expected = declared_metrics(args.trace)
    problems = []
    if not results:
        problems.append("the program printed no result")
    for result in results:
        names = list(result["metrics"])
        if sorted(names) != sorted(expected):
            problems.append(f"reported metrics {sorted(set(names) ^ set(expected))} "
                            "differ from BENCHMARK.json")
        if not result["correct"]:
            problems.append("a correctness check failed")
    sys.stdout.write(out)
    sys.stdout.flush()
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    if code != 0:
        return code
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

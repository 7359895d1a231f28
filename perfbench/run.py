#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload hot_mix --seed 1 --seconds 15 --trace 0

builds perfbench/ (the engine's sources plus the benchmark program) into
.bench_build/perfbench, runs the workload, and passes its output through:
the last line of standard output is the JSON result object. --trace 1 adds
the traced replay and prints the per-layer metrics instead, writing the
spans as Chrome trace JSON under .bench_build/traces/.

Steadiness mode runs one workload K times on seeds seed .. seed+K-1, plus the
first seed once more, and prints each end-to-end metric's median, quartiles
and (Q3-Q1)/median next to its bound from BENCHMARK.json:

    python3 perfbench/run.py --workload adhoc --steady 5

Unit tests of the benchmark's helpers:

    python3 perfbench/run.py --test
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
RUN_TIMEOUT_S = 175


def build(target):
    """Configures and builds `target`; build chatter goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def run_once(args, seed, trace, capture):
    """Runs the benchmark binary once; returns (exit code, stdout or None)."""
    cmd = [os.path.join(BUILD, "ppp_perfbench"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACES, "%s-seed%d.json" % (args.workload, seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("benchmark timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1, None
    out = proc.stdout.decode() if capture else None
    return proc.returncode, out


def last_json(text):
    lines = [line for line in (text or "").splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def steady(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seeds = list(range(args.seed, args.seed + args.steady))
    results = []
    ok = True
    for seed in seeds + [seeds[0]]:
        code, out = run_once(args, seed, False, True)
        result = last_json(out) if code == 0 else None
        if result is None or not result["correct"]:
            print("seed %d: run failed (exit %d)" % (seed, code))
            return 1
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % kv for kv in sorted(values.items()))), flush=True)
        results.append(values)
    repeat_udf = results[-1]["udf_calls_per_query"]
    first_udf = results[0]["udf_calls_per_query"]
    repeats = repeat_udf == first_udf
    print("udf_calls_per_query on seed %d: %r then %r (%s)" % (
        seeds[0], first_udf, repeat_udf,
        "repeats exactly" if repeats else "DIFFERS"))
    ok = ok and repeats
    results = results[:-1]
    print("%-26s %12s %12s %12s %9s %7s  verdict" % (
        "metric", "median", "q1", "q3", "spread", "bound"))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r[name] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = metric["bound"]
        if spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "UNSTEADY"
            ok = False
        print("%-26s %12.6g %12.6g %12.6g %9.4f %7.3f  %s" % (
            name, median, q1, q3, spread, bound, verdict))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="K",
                        help="run K seeds and report each metric's spread")
    parser.add_argument("--test", action="store_true",
                        help="build and run the helper unit tests")
    args = parser.parse_args()
    if args.test:
        if not build("perfbench_test"):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build("ppp_perfbench"):
        return 1
    if args.steady:
        if args.steady < 2:
            parser.error("--steady needs at least 2 runs")
        return steady(args)
    code, _ = run_once(args, args.seed, args.trace == 1, False)
    return code


if __name__ == "__main__":
    sys.exit(main())

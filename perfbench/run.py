#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

One run:
    python3 perfbench/run.py --workload warm_engine --seed 1 --seconds 15 --trace 0

Spread over seeds (median and quartiles of every metric):
    python3 perfbench/run.py --spread 10 --workload cold_churn --seconds 15

The first run configures and builds perfbench/ (the repository's library
sources plus the benchmark program) into the build directory:
$CARGO_TARGET_DIR if set, else .bench_build, relative to the repository
root. Build output goes
to stderr; the program's standard output is passed through, so the last
line of a run is its JSON result. A failed build or a failed output check
exits non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
BUILD_JOBS = "2"
RUN_TIMEOUT_S = 175


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the benchmark; returns its path or None."""
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", out, "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "rqp_perfbench")


def run_once(binary, workload, seed, seconds, trace, capture):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%s.jsonl" % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, None
    return proc.returncode, stdout.decode() if capture else None


def spread(binary, args):
    values = {}
    units = {}
    for seed in range(1, args.spread + 1):
        code, stdout = run_once(binary, args.workload, seed, args.seconds,
                                args.trace, capture=True)
        if code != 0:
            print("seed %d failed (exit %d)" % (seed, code), file=sys.stderr)
            return 1
        result = json.loads(stdout.strip().splitlines()[-1])
        print("seed %d: attempted=%d failed=%d" %
              (seed, result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print("%-34s %12s %12s %12s %9s" % ("metric", "q1", "median", "q3", "iqr/med"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        rel = (q3 - q1) / med if med else 0.0
        print("%-34s %12.6g %12.6g %12.6g %9.4f  %s" %
              (name, q1, med, q3, rel, units[name]))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spread", type=int, default=0,
                   help="run the workload this many times (seeds 1..k)")
    args = p.parse_args()

    binary = build()
    if binary is None:
        print("build failed", file=sys.stderr)
        return 1
    if args.spread:
        return spread(binary, args)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds,
                       args.trace, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())

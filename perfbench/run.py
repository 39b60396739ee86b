#!/usr/bin/env python3
"""Build and run perfbench, the compile / simulate / serve benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compile_cold --seed 1 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is built from the checkout's own sources into
.bench_build (or $CARGO_TARGET_DIR when set), then the perfbench
binary runs one workload.  Its output is passed through; the last
line is the result object, checked here against the metric names
and units BENCHMARK.json declares.  Exit status: the binary's (1 on
a silent divergence), or 3 when the build or the result is unusable
-- in which case no result line is printed.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile_cold", "kernels_sim", "serve_open")
RUN_TIMEOUT_S = 175


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(3)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def expectations():
    """The committed compile-coverage expectations as K=pass,..."""
    path = os.path.join(ROOT, "ci", "expected_compile_coverage.json")
    try:
        with open(path) as f:
            kernels = json.load(f)["kernels"]
    except (OSError, ValueError, KeyError) as e:
        fail("cannot read compile expectations: %s" % e)
    return ",".join("%s=%s" % (k["kernel"], "ok" if k["compiled"]
                                else k["failed_pass"])
                    for k in kernels)


def build(target):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target,
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, target)


def commit_id():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unavailable"


def source_digest():
    """sha256 over the library sources, so a result names its code
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def declared_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are %s" % sorted(result))
    want = declared_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want)
                       if got[n] != want[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, wrong))
    for name, m in result["metrics"].items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail("metric %s has no finite value" % name)
    if result["attempted"] < 1:
        fail("nothing was attempted")


def run_binary(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    return done


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the harness self-tests")
    args = p.parse_args()

    expect = expectations()
    if args.selftest:
        binary = build("perfbench_selftest")
        done = subprocess.run([binary, "--expect", expect], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
        sys.exit(done.returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        p.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        p.error("--seed must be >= 0 and --seconds within 1..60")

    declared_metrics(args.trace)
    binary = build("perfbench")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    done = run_binary([binary, "--workload", args.workload,
                       "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace),
                       "--expect", expect,
                       "--commit", commit_id(),
                       "--source-digest", source_digest(),
                       "--out-dir", out_dir])
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(l for l in lines
                                    if not l.startswith("{")) + "\n")
        fail("benchmark exited with status %d" % done.returncode)
    check_result(lines[-1], args.trace)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

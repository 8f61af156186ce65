#!/usr/bin/env python3
"""Build and run the whole-system benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds `perfbench` (the repository's
libraries from ./src plus the benchmark binary) into .bench_build/perfbench;
later calls only re-check the build. The benchmark's last line of stdout
is its JSON result. --selftest feeds one wrong value at a time into the
checkers and expects every such run to be reported incorrect.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "perfbench")
OUT = os.path.join(ROOT, "perfbench-out")
WORKLOADS = ["engine_host", "serve_hot", "serve_cold"]
# (workload, traced, wrong value): each must make the run incorrect.
# The Fig. 5 sweep's checks run in serve_cold's traced probes.
INJECTIONS = [("engine_host", 0, "grid_point"), ("serve_hot", 0, "reply_field"),
              ("serve_cold", 0, "store_key"), ("serve_cold", 1, "halo_bytes")]
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no sources at %s/src; run from a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def run(workload, seed, seconds, trace, inject=None):
    """Run one workload; returns (exit code, stdout text)."""
    t0 = time.monotonic()  # the process's start, for setup_s
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--t0", repr(t0), "--out-dir", OUT]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def result_of(out):
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def selftest():
    """Each checker must reject a run with one wrong value, and the
    metric names must be those BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    ok = True
    for w, trace, inject in INJECTIONS:
        code, out = run(w, 1, 2, trace, inject=inject)
        res = result_of(out) if code == 0 else None
        good = (res is not None and res["correct"] is False
                and set(res["metrics"]) == (layers if trace else e2e))
        print("selftest %-12s wrong %-12s %s" % (w, inject, "rejected" if good else "NOT REJECTED"))
        ok &= good
    for w in WORKLOADS:
        code, out = run(w, 1, 2, 0)
        res = result_of(out) if code == 0 else None
        good = res is not None and res["correct"] is True and set(res["metrics"]) == e2e
        print("selftest %-12s plain run %s" % (w, "ok" if good else "FAILED"))
        ok &= good
        code, out = run(w, 1, 2, 1)
        res = result_of(out) if code == 0 else None
        good = res is not None and res["correct"] is True and set(res["metrics"]) == layers
        print("selftest %-12s traced run %s" % (w, "ok" if good else "FAILED"))
        ok &= good
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if args.selftest:
        return selftest()
    code, out = run(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    if code != 0 or result_of(out) is None:
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the GreFar benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve-fair --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from anywhere inside a checkout; the build goes to .bench_build/ at the
checkout root (generated inputs and spans live there too). The last line of
stdout is the benchmark's JSON result; build output goes to stderr.
--self-test builds and runs the harness tests and checks that the binary's
metric list matches BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(target, tests):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no GreFar sources under {ROOT}/src; cannot build the benchmark")
        return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if tests or not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
                     f"-DPERFBENCH_TESTS={'ON' if tests else 'OFF'}"]
        if shutil.which("ninja") and not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    done = subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                          stdout=sys.stderr)
    return done.returncode == 0


def run_checked(cmd):
    """Runs cmd with stdout passed through; kills it on timeout."""
    with subprocess.Popen(cmd) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log(f"timed out after {RUN_TIMEOUT_S} s")
            return 3


def self_test():
    if not build("perfbench_tests", tests=True) or not build("perfbench", tests=True):
        return 1
    if run_checked([os.path.join(BUILD, "perfbench_tests")]) != 0:
        return 1
    listed = subprocess.run([os.path.join(BUILD, "perfbench"), "--list-layers"],
                            capture_output=True, text=True, check=True).stdout.split("\n")
    layers = [tuple(line.split(" ")) for line in listed if line]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if layers != declared:
        log("per_layer metrics in BENCHMARK.json differ from the binary's list")
        return 1
    print("self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if not build("perfbench", tests=False):
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    work_dir = os.path.join(BUILD, "work", f"{tag}-{os.getpid()}")
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    if args.trace:
        span_dir = os.path.join(BUILD, "spans")
        os.makedirs(span_dir, exist_ok=True)
        cmd += ["--span-path", os.path.join(span_dir, f"{tag}.jsonl")]
    try:
        return run_checked(cmd)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

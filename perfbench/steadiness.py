#!/usr/bin/env python3
"""Measures how steady the end-to-end metrics are across seeds.

    python3 perfbench/steadiness.py --sets 2 --runs 10 --out perfbench/steadiness.json

Runs perfbench/run.py (untraced) `runs` times per workload and set, each run
with its own seed (set k uses seeds k*1000+1 .. k*1000+runs). For every
end-to-end metric it records the median, the quartiles
(statistics.quantiles(n=4)), the spread (q3 - q1) / median of each set, and
the shift of the second set's median against the first. The bound a metric
needs is at least three times the largest spread seen.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs failed their checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def describe(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf"), "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"cpus": len(os.sched_getaffinity(0)), "run_seconds": spec["run_seconds"],
              "runs_per_set": args.runs, "workloads": {}}
    for workload in workloads:
        sets = []
        for k in range(args.sets):
            runs = [run_once(workload, k * 1000 + i + 1, spec["run_seconds"])
                    for i in range(args.runs)]
            sets.append({name: describe([r[name] for r in runs]) for name in runs[0]})
        entry = {}
        for name in sets[0]:
            spreads = [s[name]["spread"] for s in sets]
            first, last = sets[0][name]["median"], sets[-1][name]["median"]
            entry[name] = {"sets": [s[name] for s in sets], "max_spread": max(spreads),
                           "median_shift": abs(last - first) / first if first else 0.0,
                           "bound": bounds[name]}
            flag = "" if max(spreads) < bounds[name] / 3 or name == "setup_s" else "  <-- noisy"
            print(f"{workload:13s} {name:18s} median {first:14.6g} spread "
                  f"{max(spreads):7.4f} shift {entry[name]['median_shift']:7.4f} "
                  f"bound {bounds[name]}{flag}", flush=True)
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()

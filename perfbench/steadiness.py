#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

Runs `bash perfbench/run.sh` once per (workload, seed) from the repository
root and prints, per workload and metric, the median of the runs and the
distance between their first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. Example:

    python3 perfbench/steadiness.py --seeds 1-10
    python3 perfbench/steadiness.py --workloads profile --seeds 1-5 --seconds 20
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            out = run_once(workload, seed, args.seconds, args.trace)
            if not out["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output")
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"# {workload} seed {seed}: attempted {out['attempted']}", file=sys.stderr, flush=True)
        print(f"{workload} ({len(seeds)} seeds, {args.seconds}s runs)")
        print(f"  {'metric':<30} {'median':>12} {'spread':>8} {'bound':>6} {'min':>12} {'max':>12}")
        for name in sorted(values):
            vs = values[name]
            med = statistics.median(vs)
            spread = float("nan")
            if len(vs) >= 2 and med != 0:
                q = statistics.quantiles(vs, n=4)
                spread = (q[2] - q[0]) / abs(med)
            bound = bounds.get(name)
            bound_s = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:<30} {med:>12.4f} {spread:>8.3f} {bound_s:>6} {min(vs):>12.4f} {max(vs):>12.4f}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

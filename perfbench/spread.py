#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 1-10 [--workloads ingest,serve] [--trace 0]

runs perfbench/run.py once per (workload, seed) and prints, per workload and
metric, the median of the runs and the distance between the first and third
quartile (`statistics.quantiles(values, n=4)`) as a share of the median,
next to the metric's bound in BENCHMARK.json. A spread at or above a third
of its bound is flagged; `setup_s` is exempt from the spread rule. Also prints
each run's wall time. Results are appended as JSON lines to --out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = {w: [] for w in workloads}
    for seed in seeds_of(args.seeds):
        for w in workloads:
            t0 = time.time()
            r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                                "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                                "--trace", str(args.trace)],
                               cwd=ROOT, capture_output=True, text=True)
            wall = time.time() - t0
            if r.returncode != 0:
                sys.stderr.write(r.stdout + r.stderr)
                sys.exit("run failed: %s seed %d" % (w, seed))
            res = json.loads(r.stdout.strip().splitlines()[-1])
            res["wall_s"], res["seed"], res["workload"] = wall, seed, w
            runs[w].append(res)
            print("%-14s seed %3d  %6.1f s  attempted %d failed %d" % (
                w, seed, wall, res["attempted"], res["failed"]), flush=True)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(res) + "\n")
    for w in workloads:
        print("\n%s: %d runs, wall median %.1f s" % (
            w, len(runs[w]), statistics.median(r["wall_s"] for r in runs[w])))
        for name in runs[w][0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs[w]]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
            print("  %-24s median %-14.6g spread %6.3f  bound %s%s" % (name, med, spread, bound, flag))


if __name__ == "__main__":
    main()

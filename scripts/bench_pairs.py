#!/usr/bin/env python3
"""Paired perfbench runs of two commits.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workloads rollup,ingest --seeds 401-410 [--seconds 12] [--trace 0] \\
        [--out BENCH_x.json] [--work DIR]

exports each commit with `git archive` into --work and, per workload and
seed, runs `perfbench/run.py` once in each export, back to back: the parent
first on the 1st, 3rd, 5th... seed and the change first on the others. Every
run record goes into --out, which keeps the runs of earlier calls for the same
two commits and run length, so untraced and traced calls can share one file;
a file holding other commits or another run length is refused.

It then prints, over all untraced pairs in the file, per workload and
end-to-end metric of BENCHMARK.json: each side's median and quartiles, the
change/parent ratio of the medians, the pairs the change won, and the
parent's quartile spread (q3 - q1 over its median) beside the metric's bound.
Seeds whose items_stored or bytes_per_item differ between the sides are
flagged. Traced pairs are printed metric by metric. Files under perfbench/
are only read.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
EQUAL_PER_SEED = ("items_stored", "bytes_per_item")


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def git(*args):
    return subprocess.run(["git"] + list(args), cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, work):
    """A clean copy of commit `rev` under `work`; returns (sha, directory)."""
    sha = git("rev-parse", rev + "^{commit}")
    dest = os.path.join(work, sha[:12])
    if not os.path.isdir(dest):
        tmp = dest + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        os.rename(tmp, dest)
    return sha, dest


def run(checkout, workload, seed, seconds, trace):
    """One perfbench run in `checkout`: its wall time, result and full record."""
    t0 = time.time()
    r = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=checkout, capture_output=True, text=True)
    wall = time.time() - t0
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        sys.exit("bench_pairs: %s seed %d failed in %s" % (workload, seed, checkout))
    lines = r.stdout.strip().splitlines()
    record = next(l.rsplit("; record ", 1)[1] for l in lines if "; record " in l)
    with open(os.path.join(checkout, record)) as f:
        full = json.load(f)
    return {"wall_s": round(wall, 1), "result": json.loads(lines[-1]), "record": full}


def quartiles(vals):
    if len(vals) < 2:
        return [vals[0], vals[0]]
    q = statistics.quantiles(vals, n=4)
    return [q[0], q[2]]


def summarize(pairs, spec):
    """Per workload and end-to-end metric, over untraced pairs; prints as it goes."""
    summary = {}
    for w in sorted({p["workload"] for p in pairs}):
        ps = [p for p in pairs if p["workload"] == w]
        s = summary[w] = {
            "pairs": len(ps), "seeds": [p["seed"] for p in ps],
            "failed": {side: sum(p[side]["result"]["failed"] for p in ps) for side in SIDES},
            "attempted": {side: sum(p[side]["result"]["attempted"] for p in ps) for side in SIDES},
        }
        print("\n%s: %d pairs, seeds %s; failed %d/%d parent, %d/%d change" % (
            w, len(ps), s["seeds"], s["failed"]["parent"], s["attempted"]["parent"],
            s["failed"]["change"], s["attempted"]["change"]))
        for m in spec["end_to_end"]:
            name, higher = m["name"], m["better"] == "higher"
            vals = {side: [p[side]["result"]["metrics"][name]["value"] for p in ps] for side in SIDES}
            med = {side: statistics.median(vals[side]) for side in SIDES}
            q = {side: quartiles(vals[side]) for side in SIDES}
            won = sum((c > p) if higher else (c < p) for p, c in zip(vals["parent"], vals["change"]))
            spread = (q["parent"][1] - q["parent"][0]) / med["parent"] if med["parent"] else None
            s[name] = {
                "better": m["better"], "bound": m.get("bound"),
                "parent_median": med["parent"], "parent_quartiles": q["parent"],
                "change_median": med["change"], "change_quartiles": q["change"],
                "change_over_parent": med["change"] / med["parent"] if med["parent"] else None,
                "change_won_pairs": won,
                "parent_quartile_spread": spread,
                "medians_differ_by_more_than_parent_iqr":
                    abs(med["change"] - med["parent"]) > q["parent"][1] - q["parent"][0],
            }
            print("  %-15s parent %-11.5g [%.5g, %.5g]  change %-11.5g [%.5g, %.5g]  x%.3f  won %d/%d"
                  "  parent spread %.3f (bound %s)" % (
                      name, med["parent"], q["parent"][0], q["parent"][1], med["change"],
                      q["change"][0], q["change"][1], s[name]["change_over_parent"] or 0.0, won,
                      len(ps), spread or 0.0, m.get("bound")))
        differ = [p["seed"] for p in ps if any(
            p["parent"]["result"]["metrics"][n]["value"] != p["change"]["result"]["metrics"][n]["value"]
            for n in EQUAL_PER_SEED)]
        s["seeds_with_unequal_" + "_or_".join(EQUAL_PER_SEED)] = differ
        if differ:
            print("  FLAG: %s differ between the sides at seeds %s" % (" or ".join(EQUAL_PER_SEED), differ))
    return summary


def print_traced(pairs):
    for p in pairs:
        print("\ntraced %s seed %d (parent / change):" % (p["workload"], p["seed"]))
        for name, m in p["parent"]["result"]["metrics"].items():
            a, b = m["value"], p["change"]["result"]["metrics"][name]["value"]
            print("  %-48s %14.6g %14.6g  %s" % (name, a, b, "x%.3f" % (b / a) if a else ""))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 401-410 or 1,5,7-9")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", default=None, help="BENCH_*.json to add the runs to")
    ap.add_argument("--work", default=os.path.join(ROOT, ".bench_build", "pairs"),
                    help="where the commits are exported")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    os.makedirs(args.work, exist_ok=True)
    shas, dirs = {}, {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        shas[side], dirs[side] = export(rev, args.work)

    doc = {"parent_commit": shas["parent"], "change_commit": shas["change"], "pairs": []}
    if args.out and os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
        if (doc["parent_commit"], doc["change_commit"]) != (shas["parent"], shas["change"]):
            sys.exit("bench_pairs: %s holds runs of other commits" % args.out)
        other = sorted({p["seconds"] for p in doc["pairs"]} - {seconds})
        if other:
            sys.exit("bench_pairs: %s holds runs of %s s, not %d s" % (args.out, other, seconds))
    doc["protocol"] = ("Each (workload, seed) is one pair: both sides run back to back from "
                       "`git archive` copies of their commits, the parent first on the 1st, 3rd, "
                       "5th... seed of a call and the change first on the others.")

    def write():
        if args.out:
            with open(args.out, "w") as f:
                json.dump(doc, f, indent=1)

    for w in args.workloads.split(","):
        for i, seed in enumerate(seeds_of(args.seeds)):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"workload": w, "seed": seed, "trace": args.trace, "seconds": seconds,
                    "first": order[0]}
            for side in order:
                pair[side] = run(dirs[side], w, seed, seconds, args.trace)
            doc["pairs"].append(pair)
            write()
            res = {side: pair[side]["result"] for side in SIDES}
            rate = {side: res[side]["metrics"].get("items_per_s", {}).get("value") for side in SIDES}
            print("%-14s seed %4d  %s first  items_per_s %s  failed %d/%d" % (
                w, seed, order[0], "x%.3f" % (rate["change"] / rate["parent"]) if rate["parent"] else "-",
                res["parent"]["failed"], res["change"]["failed"]), flush=True)
    doc["untraced_summary"] = summarize([p for p in doc["pairs"] if not p["trace"]], spec)
    print_traced([p for p in doc["pairs"] if p["trace"]])
    write()

if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Benchmark entry point for the REQ sketch (see perfbench/README.md).

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

builds `src/main/scala` plus the benchmark's Scala sources with the Scala
compiler shipped in Spark's jars, runs one workload in a JVM with a fixed
heap, writes a JSON record of the run with its environment, and prints the
result as the last line of standard output. `--workload all` runs every
workload in turn.

Run it from the repository root. Spark is found through SPARK_HOME, or else
through `spark-submit` on PATH. Build outputs and run records go under
$CARGO_TARGET_DIR (default `.bench_build`)/perfbench.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["ingest", "serve", "rollup", "spark-groupby"]
HEAP = "2g"
# What Spark's own launcher opens on JDK 17.
JAVA_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar"]
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]
# A fixed heap and a fixed young generation: G1's adaptive sizing gave
# whole runs that were 30% slower than others on the same input.
JVM_FLAGS = ["-Xms" + HEAP, "-Xmx" + HEAP, "-Xmn1g", "-XX:+UseParallelGC",
             "-XX:-UseAdaptiveSizePolicy", "-XX:+AlwaysPreTouch", "-XX:-UsePerfData"]
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else None
    if not jars or not os.path.isdir(jars):
        fail("Spark not found: set SPARK_HOME or put spark-submit on PATH")
    if not any(f.startswith("scala-compiler") for f in os.listdir(jars)):
        fail("no scala-compiler jar in " + jars)
    return jars


def sources():
    main = os.path.join(ROOT, "src", "main", "scala")
    if not os.path.isdir(main):
        fail("no src/main/scala under " + ROOT + ": run from a checkout of the repository")
    out = []
    for top in (main, os.path.join(HERE, "src")):
        for d, _, files in os.walk(top):
            out += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(out)


def build(work, jars):
    """Compiles once per distinct source tree; returns the classes dir."""
    srcs = sources()
    h = hashlib.sha256()
    for f in srcs:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    digest = h.hexdigest()
    classes = os.path.join(work, "classes-" + digest[:16])
    if os.path.isdir(classes):
        return classes, digest
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", tmp] + srcs
    print("perfbench: compiling %d sources" % len(srcs), file=sys.stderr)
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("compilation failed")
    os.rename(tmp, classes)
    return classes, digest


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None
    except OSError:
        return None


def declared_metrics():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {k: {m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer")}


def run_one(args, workload, work, classes, digest, jars):
    """Runs one workload JVM; returns its result object, or exits non-zero."""
    tmp = os.path.join(work, "tmp")
    records = os.path.join(work, "runs")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(records, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = os.path.join(records, "%s-seed%d-trace%d-%s-%d.json" % (
        workload, args.seed, args.trace, stamp, os.getpid()))
    log = os.path.join(work, "last-%s.log" % workload)
    cmd = (["java"] + JVM_FLAGS + JAVA_OPENS + [
        "-Djava.io.tmpdir=" + tmp,
        "-Dspark.local.dir=" + tmp,
        "-Dspark.sql.warehouse.dir=" + os.path.join(tmp, "warehouse"),
        "-cp", classes + os.pathsep + os.path.join(jars, "*"),
        "perfbench.Main", "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
        "--inject-wrong-answer", "1" if args.inject_wrong_answer else "0",
        "--record", record])
    with open(log, "w") as err:
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)

        def stop(signum, _frame):
            child.kill()
            child.wait()
            sys.exit(128 + signum)

        signal.signal(signal.SIGTERM, stop)
        signal.signal(signal.SIGINT, stop)
        try:
            out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            fail("%s timed out after %d s (log: %s)" % (workload, RUN_TIMEOUT_S, log))
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(out)
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        fail("%s exited with %d" % (workload, child.returncode))
    result = json.loads(lines[-1])
    declared = declared_metrics()
    if declared is not None:
        want = declared["per_layer" if args.trace else "end_to_end"]
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            fail("metrics differ from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(want.items())))
    with open(record) as f:
        full = json.load(f)
    full["env"]["git_sha"] = git_sha()
    full["env"]["source_sha256"] = digest
    full["env"]["launcher_jvm_flags"] = JVM_FLAGS
    with open(record, "w") as f:
        json.dump(full, f, indent=1)
    for line in lines[:-1]:
        print(line)
    for name, m in result["metrics"].items():
        print("%-16s %-46s %16.6g %s" % (workload, name, m["value"], m["unit"]))
    for name, value in full.get("other_metrics", {}).items():
        print("%-16s %-46s %16.6g (not gated)" % (workload, name, value))
    details = full.get("details", {})
    for op in ("rank", "quantile"):
        if op + "_samples" in details:
            print("%-16s %-46s %16d (%d beyond p99)" % (
                workload, op + " latency samples", details[op + "_samples"],
                details[op + "_samples_beyond_p99"]))
    print("%-16s attempted %d, failed %d; record %s" % (
        workload, result["attempted"], result["failed"], os.path.relpath(record, ROOT)))
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny: small inputs, for the smoke test only")
    p.add_argument("--inject-wrong-answer", action="store_true",
                   help="corrupt one answer before it is checked (smoke test only)")
    args = p.parse_args()

    jars = spark_jars()
    work = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    os.makedirs(work, exist_ok=True)
    classes, digest = build(work, jars)

    if args.workload != "all":
        result = run_one(args, args.workload, work, classes, digest, jars)
        print(json.dumps(result))
        return
    results = {w: run_one(args, w, work, classes, digest, jars) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {w + "/" + k: v for w, r in results.items() for k, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()

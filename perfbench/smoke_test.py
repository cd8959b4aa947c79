#!/usr/bin/env python3
"""Smoke test of the benchmark itself: `python3 perfbench/smoke_test.py`.

Runs every workload at tiny size, untraced and traced, and checks that the
last line names every metric of BENCHMARK.json with its unit; that a
deliberately wrong answer is counted as a failed operation; and that the
benchmark exits non-zero without a result when the program's sources are
missing.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra, cwd=ROOT):
    r = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                        "--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--size", "tiny"] + list(extra),
                       cwd=cwd, capture_output=True, text=True, timeout=600)
    return r


def result_of(r):
    assert r.returncode == 0, r.stdout + r.stderr
    return json.loads(r.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):

    def check_result(self, res, kind):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in res["metrics"].items():
            self.assertTrue(math.isfinite(m["value"]), name)
            if kind == "end_to_end":
                self.assertGreater(m["value"], 0, name)

    def test_every_workload_emits_every_metric(self):
        for w in ["ingest", "serve", "rollup", "spark-groupby"]:
            with self.subTest(workload=w, trace=0):
                self.check_result(result_of(run(w, 0)), "end_to_end")
            with self.subTest(workload=w, trace=1):
                self.check_result(result_of(run(w, 1)), "per_layer")

    def test_wrong_answer_is_a_failed_operation(self):
        for w in ("ingest", "serve"):
            with self.subTest(workload=w):
                res = result_of(run(w, 0, "--inject-wrong-answer"))
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], 1)

    def test_fails_without_the_program_sources(self):
        work = os.path.join(ROOT, ".bench_build", "perfbench", "smoke-bare")
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(work, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), work)
        try:
            r = run("ingest", 0, cwd=work)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"metrics"', r.stdout)
        finally:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

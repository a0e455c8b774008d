#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py

- The checker rejects tampered results (tests/checks_test.cpp).
- Every workload prints every metric named in BENCHMARK.json, with its
  unit, in both the end-to-end and the traced run, and passes its checks.
- Without the GDP sources the benchmark fails without printing a result.

Takes about a minute after the first build.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (perfbench/run.py)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, seconds=1, seed=run.DEFAULT_SEED):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    return proc


class CheckerTest(unittest.TestCase):
    def test_checker_rejects_tampered_results(self):
        build_dir = run.build(("perfbench", "perfbench_checks_test"))
        proc = subprocess.run([os.path.join(build_dir,
                                            "perfbench_checks_test")],
                              stdout=subprocess.PIPE, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("checks_test: ok", proc.stdout)


class MetricsTest(unittest.TestCase):
    def check_run(self, workload, trace):
        spec = load_spec()
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in wanted}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, units)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        if not trace:
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)
        table = proc.stdout.splitlines()
        for name, unit in units.items():
            self.assertTrue(any(line.split()[:1] == [name] and
                                unit in line.split() for line in table),
                            "%s (%s) missing from the table" % (name, unit))

    def test_every_workload_prints_every_metric(self):
        for workload in [w["name"] for w in load_spec()["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)


class MissingSourcesTest(unittest.TestCase):
    def test_fails_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(BENCH_DIR, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "suite_matrix", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=scratch, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("\"metrics\"", proc.stdout)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

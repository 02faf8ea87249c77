#!/usr/bin/env python3
"""Every metric the perfbench binary prints must be declared in BENCHMARK.json, with
the same unit, and every declared metric must be printed: end_to_end ones
with --trace 0, per_layer ones with --trace 1, on every workload.

    python3 perfbench/tests/test_metric_names.py <path to perfbench binary>

Run from the repository root (ctest does this).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))
import run  # noqa: E402  (perfbench/run.py)

BINARY = None


class MetricNamesTest(unittest.TestCase):
    def run_binary(self, workload, trace):
        work_dir = tempfile.mkdtemp(prefix="perfbench_test_", dir=".")
        try:
            done = subprocess.run(
                [BINARY, "--workload", workload, "--seed", "5", "--seconds",
                 "1", "--trace", str(trace), "--work-dir", work_dir],
                stdout=subprocess.PIPE, universal_newlines=True, timeout=170)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        self.assertEqual(done.returncode, 0, done.stdout[-2000:])
        return json.loads(done.stdout.strip().split("\n")[-1])

    def test_every_workload_prints_exactly_the_declared_metrics(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_binary(workload, trace)
                    self.assertEqual(
                        run.check_result(result, run.declared_metrics(trace)),
                        [])
                    self.assertTrue(result["correct"])

    def test_workloads_match_benchmark_json(self):
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))

    def test_check_result_reports_drift(self):
        declared = {"a_ms": "ms", "b_s": "s"}
        good = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"a_ms": {"value": 1.5, "unit": "ms"},
                            "b_s": {"value": 2.5, "unit": "s"}}}
        self.assertEqual(run.check_result(good, declared), [])
        missing = json.loads(json.dumps(good))
        del missing["metrics"]["b_s"]
        self.assertEqual(run.check_result(missing, declared),
                         ["missing metric b_s"])
        extra = json.loads(json.dumps(good))
        extra["metrics"]["c"] = {"value": 1, "unit": "count"}
        self.assertEqual(run.check_result(extra, declared),
                         ["undeclared metric c"])
        unit = json.loads(json.dumps(good))
        unit["metrics"]["a_ms"]["unit"] = "s"
        self.assertEqual(run.check_result(unit, declared),
                         ["unit of a_ms is s, declared ms"])


if __name__ == "__main__":
    BINARY = os.path.abspath(sys.argv.pop(1))
    unittest.main()

#!/usr/bin/env python3
"""Tiny-size runs of every benchmark workload.

Each workload BENCHMARK.json names runs once untraced and once traced with
12 s sessions; the test checks that every metric BENCHMARK.json names is
printed with its unit and that no operation failed. Run from the root of
the repository:

    python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    return proc.returncode, proc.stdout.splitlines()


class TinyRuns(unittest.TestCase):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]

    def check(self, workload, trace, metric_specs):
        code, lines = run(workload, trace)
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in metric_specs})
        for m in metric_specs:
            printed = metrics[m["name"]]
            self.assertEqual(printed["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed["value"], (int, float), m["name"])
        return metrics

    def test_untraced(self):
        for name in self.workloads:
            with self.subTest(workload=name):
                metrics = self.check(name, 0, self.spec["end_to_end"])
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced(self):
        for name in self.workloads:
            with self.subTest(workload=name):
                metrics = self.check(name, 1, self.spec["per_layer"])
                self.assertEqual(metrics["failed_ratio"]["value"], 0)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of the repository:

    python3 perfbench/test_perfbench.py

Builds the benchmark if needed; the last test makes one timed and one traced
run of the smallest workload, so the whole file takes a few minutes.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def load_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class GraphIsAFunctionOfTheSeed(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cp = run.build()
        cls.graph = run.load_workloads()["cora-tiny"]["graph"]

    def digest(self, seed):
        rep = run.driver(self.cp, "digest", self.graph, seed, cores=1)
        return rep["n_e"], rep["checksum"]

    def test_same_seed_same_graph(self):
        self.assertEqual(self.digest(11), self.digest(11))

    def test_other_seed_other_graph(self):
        self.assertNotEqual(self.digest(11)[1], self.digest(12)[1])


class MetricNames(unittest.TestCase):
    def test_declared_metrics_are_the_reported_ones(self):
        bench = load_benchmark()
        e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(e2e, run.E2E)
        self.assertEqual(layer, run.per_layer_units())
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(run.load_workloads()))
        for name in list(e2e) + list(layer):
            self.assertRegex(name, run.NAME_RE)

    def test_printed_metrics_are_declared(self):
        bench = load_benchmark()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in bench[section]}
            out = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "cora-tiny",
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=200, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), set(declared))
            for name, m in result["metrics"].items():
                self.assertRegex(name, run.NAME_RE)
                self.assertEqual(m["unit"], declared[name])


if __name__ == "__main__":
    unittest.main()

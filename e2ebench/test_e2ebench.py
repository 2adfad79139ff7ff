#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 e2ebench/test_e2ebench.py

Runs every workload grid of BENCHMARK.json once at the golden scale
(0.02) in both modes and checks the result line, the metric table and
that the traced harness reproduces runExperiment's stats (the harness
exits non-zero, naming the cell, when it does not).
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's build step)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SCALE = "0.02"


def load_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.bench = load_benchmark()
        spec = subprocess.run([cls.binary, "--spec"], check=True,
                              capture_output=True, text=True).stdout
        cls.spec = json.loads(spec)
        cls.results = {}

    def harness(self, workload, trace, *extra):
        key = (workload, trace) + extra
        if key not in self.results:
            proc = subprocess.run(
                [self.binary, "--workload", workload, "--seed", "7",
                 "--seconds", "0", "--trace", str(trace), "--scale", SCALE]
                + list(extra), capture_output=True, text=True)
            self.assertEqual(proc.returncode, 0,
                             "%s trace=%d failed:\n%s%s" % (
                                 workload, trace, proc.stdout, proc.stderr))
            self.results[key] = proc.stdout
        return self.results[key]

    def result_line(self, workload, trace, *extra):
        return json.loads(
            self.harness(workload, trace, *extra).strip().splitlines()[-1])

    def test_metric_tables(self):
        for kind, limit in (("end_to_end", 16), ("per_layer", 128)):
            spec = self.spec[kind]
            names = [m["name"] for m in spec]
            self.assertTrue(1 <= len(spec) <= limit, kind)
            self.assertEqual(len(names), len(set(names)), kind)
            for m in spec:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))
            # BENCHMARK.json lists the same metrics, units and directions.
            declared = {m["name"]: (m["unit"], m["better"])
                        for m in self.bench[kind]}
            self.assertEqual(declared, {m["name"]: (m["unit"], m["better"])
                                        for m in spec})
        e2e = {m["name"]: m for m in self.bench["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        for m in e2e.values():
            self.assertLessEqual(m["bound"], 0.25)

    def test_every_workload_in_both_modes(self):
        for w in self.bench["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    r = self.result_line(w["name"], trace)
                    self.assertEqual(set(r), {"correct", "attempted",
                                              "failed", "metrics"})
                    self.assertIs(r["correct"], True)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(r["failed"], 0)
                    units = {m["name"]: m["unit"] for m in self.spec[kind]}
                    self.assertEqual(set(r["metrics"]), set(units))
                    for name, m in r["metrics"].items():
                        self.assertEqual(m["unit"], units[name])
                        self.assertTrue(math.isfinite(m["value"]), name)

    def test_traced_parity_and_coverage(self):
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                out = self.harness(w["name"], 1)
                self.assertIn("identical to runExperiment's", out)
                m = self.result_line(w["name"], 1)["metrics"]
                self.assertGreaterEqual(m["bench.layer_coverage"]["value"],
                                        0.95)

    def test_end_to_end_metrics_never_zero(self):
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                m = self.result_line(w["name"], 0)["metrics"]
                for name, v in m.items():
                    self.assertGreater(v["value"], 0, name)

    def test_speedup_independent_of_worker_count(self):
        one = self.result_line("multicore", 0, "--threads", "1")
        two = self.result_line("multicore", 0, "--threads", "2")
        self.assertEqual(one["metrics"]["speedup_geomean"],
                         two["metrics"]["speedup_geomean"])
        manual = [[line for line in self.harness("multicore", 0, "--threads",
                                                 n).splitlines()
                   if line.startswith("Manual geomean")] for n in "12"]
        self.assertEqual(len(manual[0]), 1)
        self.assertEqual(manual[0], manual[1])

    def test_bad_arguments_fail_without_a_result(self):
        for args in (["--workload", "nope"], ["--workload", "ppf",
                                              "--seed", "x1"]):
            proc = subprocess.run([self.binary] + args, capture_output=True,
                                  text=True)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    unittest.main()

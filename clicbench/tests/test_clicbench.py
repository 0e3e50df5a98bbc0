#!/usr/bin/env python3
"""Self-tests for the clicbench benchmark.

    python3 clicbench/tests/test_clicbench.py

Covers the span self-time arithmetic on a hand-built span tree, a tiny
run of every workload (untraced and traced) that must print exactly the
metric names BENCHMARK.json declares and pass its correctness checks,
and seed determinism of the generated traces. The tiny runs build the
benchmark first if needed.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WIRE_RATE = "400000"

sys.path.insert(0, BENCH)
import spans  # noqa: E402


def run_bench(*args):
    out = subprocess.run([sys.executable, RUN, "--wire-rate", WIRE_RATE] + list(args),
                         capture_output=True, text=True, cwd=ROOT, timeout=900)
    return out


class SpanArithmetic(unittest.TestCase):
    # root [0, 100) has children A [10, 40) and B [30, 60), which overlap,
    # and C [90, 120), which outlives it; A has a grandchild [15, 20).
    TREE = [
        spans.Span(1, 0, 1, 0, 0, 100, "bench.root"),
        spans.Span(2, 1, 1, 7, 10, 40, "core.AccessBatch"),
        spans.Span(3, 1, 2, 7, 30, 60, "server.Submit"),
        spans.Span(4, 1, 3, 8, 90, 120, "net.write"),
        spans.Span(5, 2, 1, 7, 15, 20, "core.AccessBatch"),
    ]

    def test_self_time_subtracts_union_of_clipped_children(self):
        own = spans.self_times(self.TREE)
        self.assertEqual(own[1], 100 - (60 - 10) - (100 - 90))
        self.assertEqual(own[2], 30 - 5)
        self.assertEqual(own[3], 30)
        self.assertEqual(own[4], 30)
        self.assertEqual(own[5], 5)

    def test_module_totals_and_file_round_trip(self):
        with tempfile.NamedTemporaryFile("w", suffix=".tsv", delete=False) as f:
            for s in self.TREE:
                f.write("\t".join(str(x) for x in s) + "\n")
            path = f.name
        try:
            loaded = spans.load(path)
        finally:
            os.remove(path)
        self.assertEqual(loaded, self.TREE)
        ms = spans.module_self_ms(loaded)
        self.assertEqual(set(ms), set(spans.MODULES))
        self.assertAlmostEqual(ms["core"], 30 / 1e6)
        self.assertAlmostEqual(ms["server"], 30 / 1e6)
        self.assertAlmostEqual(ms["net"], 30 / 1e6)
        self.assertEqual(ms["sweep"], 0.0)

    def test_covered_handles_nesting_and_gaps(self):
        self.assertEqual(spans.covered(0, 10, [(2, 4), (3, 5), (7, 8)]), 4)
        self.assertEqual(spans.covered(0, 10, [(-5, 2), (9, 20)]), 3)
        self.assertEqual(spans.covered(0, 10, []), 0)


class TinyWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace):
        out = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                        "--trace", str(trace), "--tiny")
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            # Every metric is also printed on its own line with its unit.
            self.assertRegex(out.stdout, r"(?m)^%s\s+\S+ %s$" % (
                m["name"].replace(".", r"\."), m["unit"]))

    def test_every_workload_prints_every_metric(self):
        for workload in ("tpcc-offline", "xl-writes-served", "tpcc-wire"):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


class SeedDeterminism(unittest.TestCase):
    def digest(self, workload, seed):
        out = run_bench("--workload", workload, "--seed", str(seed), "--tiny",
                        "--digest")
        self.assertEqual(out.returncode, 0, out.stderr)
        return out.stdout.strip()

    def test_same_seed_same_trace_other_seed_differs(self):
        for workload in ("tpcc-offline", "xl-writes-served"):
            with self.subTest(workload=workload):
                first = self.digest(workload, 11)
                self.assertEqual(first, self.digest(workload, 11))
                self.assertNotEqual(first, self.digest(workload, 12))


if __name__ == "__main__":
    unittest.main()

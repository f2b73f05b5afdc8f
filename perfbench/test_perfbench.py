#!/usr/bin/env python3
"""Tests of the benchmark's own machinery: metric-name validation, the
per-iteration verdicts (a tampered report must count as a failed
iteration) and, through perfbench_selftest, span folding and the fleet
report checks.

  python3 perfbench/test_perfbench.py
"""

import copy
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def runner_doc(digests, failures=None, trace=0, per_layer=None):
    """A runner document shaped like perfbench_runner's output."""
    failures = failures or [""] * len(digests)
    iterations = [{"setup_s": 0.01 + i * 1e-4, "piece_s": [0.5, 0.5 + i * 0.1], "failure": f,
                   "digest": d, "quality": {"accuracy": 0.9}}
                  for i, (d, f) in enumerate(zip(digests, failures))]
    doc = {"workload": "lattice-mkl", "seed": 1, "seconds": 1.0, "trace": trace,
           "provenance": {"compiler": "test", "hardware_threads": 1},
           "peak_rss_mb": 40.5, "setup_s": [0.01, 0.02, 0.03], "iterations": iterations}
    if trace:
        doc["traced"] = copy.deepcopy(iterations[0])
        doc["per_layer"] = per_layer or {}
        doc["attribution_us"] = {"core": 1.0}
    return doc


class MetricNames(unittest.TestCase):
    def test_accepts_letters_digits_and_separators(self):
        for name in ["wall_s", "sim.event_self_us.device-flush",
                     "core.search_s.greedy-refinement", "9lives", "a" * 64]:
            self.assertTrue(run.valid_name(name), name)

    def test_rejects_everything_else(self):
        for name in ["", ".hidden", "-x", "_x", "two words", "a/b", "métrique", "a:b",
                     "a" * 65, None, 3]:
            self.assertFalse(run.valid_name(name), name)

    def test_definitions_agree_and_are_valid(self):
        bench, defs = run.load_definitions()
        self.assertEqual(len(bench["per_layer"]), len(defs["per_layer"]))


class Verdicts(unittest.TestCase):
    def setUp(self):
        self.bench, self.defs = run.load_definitions()

    def test_clean_report_passes(self):
        result = run.evaluate(runner_doc(["aa", "aa", "aa"]), self.bench, self.defs)
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (3, 0))
        # Each piece's fastest time (0.5 + 0.5), and the median iteration (1.1).
        self.assertAlmostEqual(result["report"]["wall_s"], 1.0)
        self.assertAlmostEqual(result["report"]["wall_median_s"], 1.1)
        self.assertAlmostEqual(result["metrics"]["setup_s"]["value"], 0.02)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in self.bench["end_to_end"]})

    def test_tampered_digest_counts_as_failed(self):
        result = run.evaluate(runner_doc(["aa", "bb", "aa"]), self.bench, self.defs)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        # Only iterations 0 and 2 count: walls 1.0 and 1.2.
        self.assertAlmostEqual(result["report"]["wall_median_s"], 1.1)

    def test_failed_check_counts_as_failed(self):
        doc = runner_doc(["aa", "aa"], failures=["", "row-conservation ledger out of balance"])
        result = run.evaluate(doc, self.bench, self.defs)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_tampered_traced_iteration_counts_as_failed(self):
        names = {m["name"]: 1.0 for m in self.defs["per_layer"]
                 if "lattice-mkl" in m["workloads"] and m["name"] != "obs.trace_overhead_pct"}
        doc = runner_doc(["aa", "aa"], trace=1, per_layer=names)
        self.assertTrue(run.evaluate(doc, self.bench, self.defs)["correct"])
        doc["traced"]["digest"] = "cc"
        result = run.evaluate(doc, self.bench, self.defs)
        self.assertEqual((result["attempted"], result["failed"]), (3, 1))

    def test_failed_replay_check_counts_as_failed(self):
        names = {m["name"]: 1.0 for m in self.defs["per_layer"]
                 if "lattice-mkl" in m["workloads"] and m["name"] != "obs.trace_overhead_pct"}
        doc = runner_doc(["aa", "aa"], trace=1, per_layer=names)
        doc["traced"]["failure"] = ("replay check: replayed SVM iterations (5000000 us) exceed "
                                    "the 3000000 us of span self time they ran in")
        result = run.evaluate(doc, self.bench, self.defs)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (3, 1))
        self.assertEqual(result["metrics"]["kernels.svm_trains"]["value"], 1.0)

    def test_layers_of_other_workloads_read_zero(self):
        names = {m["name"]: 2.0 for m in self.defs["per_layer"]
                 if "lattice-mkl" in m["workloads"] and m["name"] != "obs.trace_overhead_pct"}
        result = run.evaluate(runner_doc(["aa"], trace=1, per_layer=names), self.bench, self.defs)
        self.assertEqual(result["metrics"]["sim.events"]["value"], 0.0)
        self.assertEqual(result["metrics"]["kernels.svm_trains"]["value"], 2.0)
        # The traced pass repeats iteration 0 (1.0 s), the one pass run.
        self.assertAlmostEqual(result["metrics"]["obs.trace_overhead_pct"]["value"], 0.0)

    def test_missing_layer_metric_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.evaluate(runner_doc(["aa"], trace=1, per_layer={}), self.bench, self.defs)


class CppSelfTest(unittest.TestCase):
    def test_selftest_passes(self):
        run.build()
        proc = subprocess.run([run.BUILD_DIR / "perfbench_selftest"], capture_output=True,
                              text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()

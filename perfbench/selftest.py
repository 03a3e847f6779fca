"""Self-test of the benchmark at a few hundred requests per workload.

Run from the repository root (takes about a minute)::

    python3 perfbench/selftest.py

Checks that every named metric is emitted with its unit in both modes,
that traced and untraced runs produce the same sim digest, and that a
deliberately corrupted record trips the correctness gate.
"""

from __future__ import annotations

import dataclasses
import time
import unittest

import checks
import run
import worker
from tracer import Tracer
from workloads import WORKLOADS

SMALL = 300


class MetricsEmitted(unittest.TestCase):
    """Every metric of BENCHMARK.json comes out, by name and unit."""

    def test_every_workload_and_mode(self) -> None:
        spec = run.load_spec()
        self.assertEqual(sorted(WORKLOADS),
                         sorted(w["name"] for w in spec["workloads"]))
        self.assertEqual(sorted(WORKLOADS), sorted(run.WORKLOAD_NAMES))
        for name in WORKLOADS:
            for trace, wanted in ((False, spec["end_to_end"]),
                                  (True, spec["per_layer"])):
                with self.subTest(workload=name, trace=trace):
                    result = run.bench(name, 0, 0.0, trace, SMALL, spec,
                                       time.perf_counter() + 150.0)
                    self.assertTrue(result["correct"], result["problems"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], SMALL)
                    self.assertEqual(
                        {n: e["unit"] for n, e in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in wanted})
                    for entry in result["metrics"].values():
                        self.assertIsInstance(entry["value"], (int, float))
                        self.assertNotIsInstance(entry["value"], bool)


class TracingChangesNothing(unittest.TestCase):
    """A traced run models exactly what an untraced run models."""

    def test_digests_agree(self) -> None:
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                plain = worker.measure(workload, 0, SMALL, None)
                traced = worker.measure(workload, 0, SMALL, Tracer())
                self.assertEqual(plain["digest"], traced["digest"])
                self.assertGreater(traced["layers"]["engine.run_s"], 0.0)


class CorrectnessGate(unittest.TestCase):
    """The gate accepts a correct run and rejects corrupted outputs."""

    def setUp(self) -> None:
        workload = WORKLOADS["azure_fast"]
        self.trace = workload.trace(0, SMALL)
        self.metrics, self.records = workload.engine().run(self.trace)
        self.totals = checks.trace_totals(self.trace)

    def test_clean_run_passes(self) -> None:
        self.assertEqual(checks.correctness_gate(
            self.metrics, self.records, self.totals), [])

    def test_first_token_before_arrival_fails(self) -> None:
        records = list(self.records)
        bad = records[7]
        records[7] = dataclasses.replace(bad,
                                         first_token_s=bad.arrival_s - 1.0)
        problems = checks.correctness_gate(self.metrics, records, self.totals)
        self.assertTrue(any("out of order" in p for p in problems), problems)

    def test_missing_record_fails(self) -> None:
        problems = checks.correctness_gate(self.metrics, self.records[1:],
                                           self.totals)
        self.assertTrue(problems)

    def test_lost_tokens_fail(self) -> None:
        metrics = dataclasses.replace(
            self.metrics, generated_tokens=self.metrics.generated_tokens - 1)
        problems = checks.correctness_gate(metrics, self.records, self.totals)
        self.assertTrue(any("tokens generated" in p for p in problems),
                        problems)


if __name__ == "__main__":
    unittest.main()

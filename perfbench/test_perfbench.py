#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, on tiny variants of every workload.

Run from the repository root:  python3 perfbench/test_perfbench.py
The smoke variants take the same code path as the full workloads, on inputs
small enough that each run takes about a second.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the wrapper's build step)

BENCHMARK = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
BINARY = run.build()


def smoke(workload, trace, *extra):
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke", *extra],
        capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]), proc.stdout


class SmokeTest(unittest.TestCase):
    def check_names(self, result, key):
        want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(want, got)

    def test_every_workload_reports_every_metric(self):
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                code, result, out = smoke(w["name"], 0)
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.check_names(result, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                code, result, out = smoke(w["name"], 1)
                self.assertEqual(code, 0, out)
                self.check_names(result, "per_layer")

    def test_corrupted_fingerprint_is_a_failure(self):
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                code, result, out = smoke(w["name"], 0, "--corrupt-expected")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"] / result["attempted"], 0)
                self.assertIn("FAILED list_kp call", out)

    def test_recorded_cost_drift_is_named_not_failed(self):
        code, result, out = smoke("dense_k4", 0, "--expect-cost", "1,1,1,1,1")
        self.assertEqual(code, 0, out)
        self.assertTrue(result["correct"])
        self.assertIn("DRIFT sim_rounds (recorded cost)", out)
        self.assertIn("DRIFT sim_messages (recorded cost)", out)

    def test_no_arb_list_call_means_no_layer_call(self):
        code, result, out = smoke("dyn_churn", 1)
        self.assertEqual(code, 0, out)
        self.assertEqual(result["metrics"]["core.arb_iterations"]["value"], 0)
        for name in ("expander.decompose_s", "core.arb_list_s"):
            self.assertEqual(result["metrics"][name]["value"], 0, name)

    def test_same_seed_same_simulated_cost(self):
        _, a, _ = smoke("ring_k6", 0)
        _, b, _ = smoke("ring_k6", 0)
        for name in ("sim_rounds", "sim_messages"):
            self.assertEqual(a["metrics"][name], b["metrics"][name])


if __name__ == "__main__":
    unittest.main()

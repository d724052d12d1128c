#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py            # all tests
    python3 perfbench/test_perfbench.py StatsTest  # statistics helpers only

StatsTest checks the statistics helpers, ManifestTest that BENCHMARK.json
names the metrics run.py prints, CheckerTest builds sfbench and runs its
checker self test (every checker must reject a corrupted input), and
SmokeTest runs every workload once, briefly, plus one traced run. Run
from the repository root; building and the smoke runs take a few minutes
on a cold checkout.
"""

import json
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402
import run  # noqa: E402

ROOT = HERE.parent


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            benchstats.median([])

    def test_quartiles_follow_statistics_quantiles(self):
        xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(benchstats.quartiles(xs), tuple(statistics.quantiles(xs, n=4)))
        self.assertEqual(benchstats.quartiles([2.0]), (2.0, 2.0, 2.0))

    def test_iqr_share(self):
        xs = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(benchstats.iqr_share(xs), (q3 - q1) / q2)

    def test_percentile_interpolates(self):
        xs = list(range(101))
        self.assertEqual(benchstats.percentile(xs, 95), 95)
        self.assertEqual(benchstats.percentile([0, 10], 25), 2.5)
        self.assertEqual(benchstats.percentile([7], 99), 7)
        with self.assertRaises(ValueError):
            benchstats.percentile(xs, 101)

    def test_tail_rule_needs_ten_samples_beyond(self):
        self.assertIsNone(benchstats.tail_percentile(39))
        self.assertEqual(benchstats.tail_percentile(40), 75.0)
        self.assertEqual(benchstats.tail_percentile(99), 75.0)
        self.assertEqual(benchstats.tail_percentile(100), 90.0)
        self.assertEqual(benchstats.tail_percentile(199), 90.0)
        self.assertEqual(benchstats.tail_percentile(200), 95.0)
        self.assertEqual(benchstats.tail_percentile(999), 95.0)
        self.assertEqual(benchstats.tail_percentile(1000), 99.0)
        self.assertEqual(benchstats.tail_percentile(10000), 99.9)

    def test_tail_uses_guaranteed_count(self):
        xs = [float(i) for i in range(1, 301)]
        # 200 guaranteed samples: the 95th percentile, even with 300 taken.
        self.assertAlmostEqual(benchstats.tail(xs, 200), benchstats.percentile(xs, 95))
        # No tail below forty samples: the median stands in.
        self.assertEqual(benchstats.tail(xs[:10], 1), benchstats.median(xs[:10]))
        with self.assertRaises(ValueError):
            benchstats.tail(xs[:100], 200)


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_matches_the_printed_metrics(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(doc["command"], ["python3", "perfbench/run.py"])
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]},
                         run.PER_LAYER_UNITS)
        for w in doc["workloads"]:
            self.assertIn(w["name"], run.MIN_OPS)
        self.assertTrue(any(m["name"] == "setup_s" for m in doc["end_to_end"]))


def built_sfbench():
    sfbench, _ = run.build(ROOT)
    return sfbench


class CheckerTest(unittest.TestCase):
    def test_every_checker_rejects_corrupted_input(self):
        proc = subprocess.run([str(built_sfbench()), "selftest"], cwd=ROOT,
                              capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("0 failure(s)", proc.stdout)
        self.assertNotIn("FAIL", proc.stdout)


class SmokeTest(unittest.TestCase):
    def run_once(self, workload, trace):
        built_sfbench()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "3" if trace else "1",
             "--trace", str(trace), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], proc.stderr[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
        self.assertEqual(sorted(result["metrics"]), sorted(units))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], units[name])
            self.assertIsInstance(m["value"], (int, float))
            if not trace:
                self.assertGreater(m["value"], 0, name)
        return result

    def test_campaign_cold(self):
        self.run_once("campaign-cold", 0)

    def test_sim_long(self):
        self.run_once("sim-long", 0)

    def test_serve_mixed(self):
        self.run_once("serve-mixed", 0)

    def test_traced_run(self):
        m = self.run_once("campaign-cold", 1)["metrics"]
        self.assertGreaterEqual(m["trace.campaign-cold.coverage"]["value"], 0.9)


if __name__ == "__main__":
    unittest.main()

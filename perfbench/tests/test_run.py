"""Unit tests of perfbench/run.py's own helpers (no benchmark is run).

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import importlib.util
import json
import os
import statistics
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(HERE, "..", "run.py"))
run = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(run)


def result_line(metrics):
    return json.dumps({"correct": True, "attempted": 3, "failed": 0,
                       "metrics": metrics})


class QuartileSpreadTest(unittest.TestCase):

    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.5, 12.0, 9.0, 10.2, 10.8, 11.5, 9.8]
        median, q1, q3, spread = run.quartile_spread(values)
        want_q1, want_median, want_q3 = statistics.quantiles(values, n=4)
        self.assertEqual((median, q1, q3), (want_median, want_q1, want_q3))
        self.assertAlmostEqual(spread, (want_q3 - want_q1) / want_median)

    def test_identical_values_have_zero_spread(self):
        self.assertEqual(run.quartile_spread([4.0] * 5)[3], 0.0)

    def test_zero_median_is_infinitely_spread(self):
        self.assertEqual(run.quartile_spread([0.0] * 4)[3], float("inf"))

    def test_steadiness_rows_compare_with_a_third_of_the_bound(self):
        metrics = {"p50_ms": {"name": "p50_ms", "bound": 0.15},
                   "p90_ms": {"name": "p90_ms", "bound": 0.15}}
        runs = [{"metrics": {"p50_ms": {"value": v}, "p90_ms": {"value": w}}}
                for v, w in [(10, 10), (10.1, 13), (10.2, 8), (9.9, 11)]]
        rows = {row[0]: row for row in run.steadiness_rows(runs, metrics)}
        self.assertTrue(rows["p50_ms"][6])   # spread ~0.02 <= 0.05
        self.assertFalse(rows["p90_ms"][6])  # spread ~0.4 > 0.05


class CheckResultTest(unittest.TestCase):

    def setUp(self):
        self.declared = run.declared_metrics(False)

    def full_metrics(self):
        return {name: {"value": 1.5, "unit": spec["unit"]}
                for name, spec in self.declared.items()}

    def test_accepts_exactly_the_declared_metrics(self):
        result = run.check_result(result_line(self.full_metrics()), 0)
        self.assertEqual(set(result["metrics"]), set(self.declared))

    def test_rejects_a_missing_metric(self):
        metrics = self.full_metrics()
        metrics.pop("p90_ms")
        with self.assertRaises(ValueError):
            run.check_result(result_line(metrics), 0)

    def test_rejects_a_wrong_unit(self):
        metrics = self.full_metrics()
        metrics["p50_ms"]["unit"] = "s"
        with self.assertRaises(ValueError):
            run.check_result(result_line(metrics), 0)

    def test_rejects_extra_keys(self):
        line = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                           "metrics": self.full_metrics(), "extra": 1})
        with self.assertRaises(ValueError):
            run.check_result(line, 0)


if __name__ == "__main__":
    unittest.main()

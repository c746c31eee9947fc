"""Tests of run.py's comparison rule (quartiles, spread, verdict)."""
import importlib.util
import os
import unittest

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(os.path.dirname(__file__), "..", "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        q1, med, q3 = run.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(med, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_single_value(self):
        self.assertEqual(run.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(run.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 5.5 / 5.5)
        self.assertEqual(run.spread([3.0, 3.0, 3.0]), 0.0)


class Verdict(unittest.TestCase):
    steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_agree_within_bound(self):
        change = [x * 1.05 for x in self.steady]
        self.assertEqual(run.verdict(self.steady, change, "lower", 0.1), "agree")

    def test_worse_beyond_bound_lower_is_better(self):
        change = [x * 1.2 for x in self.steady]
        self.assertEqual(run.verdict(self.steady, change, "lower", 0.1), "worse")

    def test_worse_beyond_bound_higher_is_better(self):
        change = [x * 0.8 for x in self.steady]
        self.assertEqual(run.verdict(self.steady, change, "higher", 0.1), "worse")
        self.assertEqual(run.verdict(self.steady, change, "lower", 0.1), "agree")

    def test_noisy_parent_is_unresolved(self):
        noisy = [50, 150, 60, 140, 100, 70, 130, 90, 110, 80]
        change = [x * 1.2 for x in self.steady]
        self.assertEqual(run.verdict(noisy, change, "lower", 0.1), "unresolved")

    def test_noisy_but_every_run_better(self):
        noisy = [150, 200, 160, 190, 170, 210, 180, 155, 205, 165]
        self.assertEqual(run.verdict(noisy, self.steady, "lower", 0.1), "better")


if __name__ == "__main__":
    unittest.main()

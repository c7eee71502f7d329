"""Tests of the compare rule in run.py (run: python3 clusterbench/run.py selftest)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class CompareRule(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        self.assertEqual(run.quartiles([5.0]), (5.0, 5.0, 5.0))
        q1, med, q3 = run.quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        self.assertEqual((q1, med, q3), (2.75, 5.5, 8.25))

    def test_gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_base_spread(self):
        base = [10.0 + 0.1 * i for i in range(10)]
        faster = [x - 2.0 for x in base]
        self.assertEqual(run.verdict(base, faster, "lower", 0.1)[3], "gain")
        # Same gap, but only 8 of 10 pairs won: no gain claimed.
        mixed = faster[:8] + [x + 5.0 for x in base[8:]]
        self.assertNotEqual(run.verdict(base, mixed, "lower", 0.1)[3], "gain")
        # Higher is better for throughput-like metrics.
        self.assertEqual(run.verdict(base, [x + 2.0 for x in base], "higher", 0.1)[3], "gain")

    def test_regression_and_bound(self):
        base = [100.0 + i for i in range(10)]
        self.assertEqual(run.verdict(base, [x * 1.3 for x in base], "lower", 0.1)[3], "regression")
        self.assertEqual(run.verdict(base, [x * 1.02 for x in base], "lower", 0.1)[3], "within bound")
        noisy = [50.0, 150.0] * 5
        self.assertEqual(run.verdict(noisy, noisy, "lower", 0.1)[3], "unresolved")
        self.assertEqual(run.verdict(base, base, "lower", None)[3], "no claim")


if __name__ == "__main__":
    unittest.main()

"""Tests for steady.py's arithmetic. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

from steady import seeds, spread, worsening


class QuartileSpread(unittest.TestCase):
    def test_spread_is_interquartile_distance_over_median(self):
        # statistics.quantiles(1..10, n=4) == [2.75, 5.5, 8.25]
        self.assertAlmostEqual(spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)

    def test_spread_ignores_order_and_outliers_beyond_the_quartiles(self):
        values = [10.0, 10.2, 9.9, 10.1, 10.0, 50.0, 10.05, 9.95, 10.0, 10.1]
        self.assertAlmostEqual(spread(values), spread(sorted(values)))
        self.assertLess(spread(values), 0.02)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(spread([3.0] * 10), 0.0)


class MedianDrift(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertAlmostEqual(worsening([10, 10, 10], [11, 11, 11], "lower"), 0.1)
        self.assertAlmostEqual(worsening([10, 10, 10], [9, 9, 9], "lower"), -0.1)

    def test_higher_is_better(self):
        self.assertAlmostEqual(worsening([100, 100], [90, 90], "higher"), 0.1)
        self.assertAlmostEqual(worsening([100, 100], [120, 120], "higher"), -0.2)


class SeedRanges(unittest.TestCase):
    def test_ranges_are_inclusive(self):
        self.assertEqual(seeds("1-3"), [1, 2, 3])
        self.assertEqual(seeds("7"), [7])


if __name__ == "__main__":
    unittest.main()

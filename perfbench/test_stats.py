"""Tests of the benchmark's statistics helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import stats


class MedianAndQuartilesTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [float(v) for v in range(1, 11)]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual((q1, q2, q3),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(q2, 5.5)
        self.assertEqual((q1, q3), (2.75, 8.25))

    def test_relative_spread(self):
        values = [float(v) for v in range(1, 11)]
        self.assertAlmostEqual(stats.relative_spread(values), 5.5 / 5.5)
        self.assertEqual(stats.relative_spread([2.0] * 8), 0.0)


class TailTest(unittest.TestCase):
    def test_tail_has_exactly_ten_samples_beyond(self):
        values = [float(v) for v in range(1, 41)]  # 40 samples
        value, percentile, count = stats.tail(values)
        self.assertEqual(value, 30.0)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertEqual(percentile, 75.0)
        self.assertEqual(count, 40)

    def test_tail_ignores_input_order(self):
        values = [float(v) for v in range(100, 0, -1)]
        value, percentile, count = stats.tail(values)
        self.assertEqual((value, percentile, count), (90.0, 90.0, 100))

    def test_no_tail_when_too_few_samples(self):
        self.assertIsNone(stats.tail([1.0] * 5))
        self.assertIsNone(stats.tail([float(v) for v in range(21)]))

    def test_smallest_sample_count_with_a_tail(self):
        values = [float(v) for v in range(22)]
        value, percentile, _ = stats.tail(values)
        self.assertEqual(value, 11.0)
        self.assertGreater(value, stats.median(values))
        self.assertAlmostEqual(percentile, 100.0 * 12 / 22)


class SpanTest(unittest.TestCase):
    # (name, parent, start_ms, duration_ms)
    SPANS = [
        ["op", -1, 0.0, 100.0],
        ["discovery.discover", 0, 1.0, 60.0],
        ["normalize.finish", 0, 62.0, 35.0],
        ["op", -1, 200.0, 110.0],
        ["discovery.discover", 3, 201.0, 70.0],
        ["normalize.finish", 3, 272.0, 36.0],
    ]

    def test_self_times_subtract_children(self):
        self.assertEqual(stats.self_times(self.SPANS),
                         [5.0, 60.0, 35.0, 4.0, 70.0, 36.0])

    def test_grouping_by_name(self):
        self.assertEqual(stats.durations_by_name(self.SPANS)["op"],
                         [100.0, 110.0])
        self.assertEqual(stats.self_times_by_name(self.SPANS)["op"],
                         [5.0, 4.0])


class LayerSumTest(unittest.TestCase):
    def test_sum_within_tolerance(self):
        total, gap, ok = stats.layer_sum_check([60.0, 35.0, 4.5], 100.0, 0.15)
        self.assertEqual(total, 99.5)
        self.assertAlmostEqual(gap, -0.005)
        self.assertTrue(ok)

    def test_sum_outside_tolerance(self):
        total, gap, ok = stats.layer_sum_check([60.0, 10.0], 100.0, 0.15)
        self.assertAlmostEqual(gap, -0.30)
        self.assertFalse(ok)

    def test_tolerance_is_symmetric(self):
        self.assertFalse(stats.layer_sum_check([120.0], 100.0, 0.15)[2])
        self.assertTrue(stats.layer_sum_check([114.0], 100.0, 0.15)[2])


if __name__ == "__main__":
    unittest.main()

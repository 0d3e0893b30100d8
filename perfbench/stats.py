"""Statistics helpers of the benchmark: medians, quartiles, tails, span self
times and the layer-sum check. Pure functions, tested by test_stats.py."""

import statistics

# A tail is reported only where at least this many samples lie beyond it.
TAIL_SAMPLES_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def tail(values, beyond=TAIL_SAMPLES_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample_count), or None when there are too few
    samples for a tail distinct from the median: the tail is the sample with
    exactly `beyond` samples above it, and it must lie above the median
    position.
    """
    n = len(values)
    index = n - beyond - 1
    if index <= (n - 1) // 2:
        return None
    ordered = sorted(values)
    return ordered[index], 100.0 * (index + 1) / n, n


def self_times(spans):
    """Self time of every span: its duration minus the time its children
    cover. `spans` holds (name, parent_index, start_ms, duration_ms)."""
    child_ms = [0.0] * len(spans)
    for name, parent, start, duration in spans:
        if parent >= 0:
            child_ms[parent] += duration
    return [s[3] - c for s, c in zip(spans, child_ms)]


def durations_by_name(spans):
    out = {}
    for name, parent, start, duration in spans:
        out.setdefault(name, []).append(duration)
    return out


def self_times_by_name(spans):
    out = {}
    for span, own in zip(spans, self_times(spans)):
        out.setdefault(span[0], []).append(own)
    return out


def layer_sum_check(layer_p50s, whole_p50, tolerance):
    """Whether the blocking-path layers add up to the whole.

    Returns (sum, relative_gap, ok) with gap = sum / whole - 1.
    """
    total = sum(layer_p50s)
    gap = total / whole_p50 - 1.0
    return total, gap, abs(gap) <= tolerance

"""Small statistics helpers shared by the run, the spread check and the tests."""

from __future__ import annotations

import statistics


def median(values) -> float:
    """Median, or 0.0 for no values (a layer that was never called)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when there is nothing to divide by."""
    return num / den if den else 0.0


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the median.

    Uses statistics.quantiles(values, n=4), the rule the benchmark's
    steadiness bounds are checked with.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

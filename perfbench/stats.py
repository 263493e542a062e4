"""Order statistics for latency samples."""

from __future__ import annotations

import statistics


def percentile(values, q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values, default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def mean(values, default: float = 0.0) -> float:
    values = list(values)
    return statistics.fmean(values) if values else default

"""Small statistics helpers shared by the runner, the tracer and compare."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

__all__ = [
    "percentile",
    "quartiles",
    "spread",
]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the value at rank ``ceil(fraction·n)``).

    Nearest-rank never interpolates, so a reported percentile is always a
    latency some payment actually saw.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(values)
    # round() first: 0.95 * 20 is 19.000000000000004 in binary floats.
    rank = max(1, math.ceil(round(fraction * len(ordered), 9)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) exactly as the driver computes them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")

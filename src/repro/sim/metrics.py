"""Measurement utilities: throughput buckets and latency percentiles.

The paper reports settled payments/second ("pps"), average and 95th/99th
percentile latency, and per-second throughput timelines (Figs. 3–7,
Table I).  These classes collect exactly those series.

:func:`summarize_values` computes its percentiles and mean with the
standard library in numpy's order of operations (the default ``linear``
percentile, the float64 pairwise sum behind ``mean``), so every figure
and report number stays bit-identical to what ``numpy.percentile`` and
``ndarray.mean`` gave, while no process of the runtime loads numpy.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Dict, List, Sequence

__all__ = [
    "LatencyRecorder",
    "ThroughputMeter",
    "LatencySummary",
    "summarize_values",
]


class LatencySummary:
    """Immutable summary of a latency sample set (seconds)."""

    __slots__ = ("count", "mean", "p50", "p95", "p99", "max")

    def __init__(
        self, count: int, mean: float, p50: float, p95: float, p99: float, max_: float
    ) -> None:
        self.count = count
        self.mean = mean
        self.p50 = p50
        self.p95 = p95
        self.p99 = p99
        self.max = max_

    @classmethod
    def empty(cls) -> "LatencySummary":
        nan = float("nan")
        return cls(0, nan, nan, nan, nan, nan)

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.count == 0:
            return "<LatencySummary empty>"
        return (
            f"<LatencySummary n={self.count} mean={self.mean * 1e3:.1f}ms "
            f"p95={self.p95 * 1e3:.1f}ms>"
        )


def _pairwise_sum(values: Sequence[float], start: int, stop: int) -> float:
    """numpy's float64 pairwise sum of ``values[start:stop]``, in order:
    a plain loop under 8 values, eight strided accumulators up to 128,
    and above that two halves split at a multiple of 8."""
    n = stop - start
    if n < 8:
        return reduce(add, values[start:stop], 0.0)
    if n <= 128:
        tail = stop - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = [
            reduce(add, values[start + lane : tail : 8]) for lane in range(8)
        ]
        head = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        return reduce(add, values[tail:stop], head)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, start + half) + _pairwise_sum(
        values, start + half, stop
    )


def _percentile(ordered: List[float], q: float) -> float:
    """numpy's default (``linear``) percentile of a sorted sample, with
    its two-sided interpolation."""
    index = (len(ordered) - 1) * q
    if index >= len(ordered) - 1:
        return ordered[-1]
    below = math.floor(index)
    t = index - below
    a, b = ordered[below], ordered[below + 1]
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


def summarize_values(values: Sequence[float]) -> LatencySummary:
    """Summarize a latency sample sequence.

    Shared by :class:`LatencyRecorder` and the live cluster's reports
    (:mod:`repro.transport.cluster`).  Bit-identical to
    ``numpy.percentile(values, [50, 95, 99])``, ``mean()`` and ``max()``
    on finite samples; a sample holding both signed zeros may differ in
    the sign of a zero result (no latency is ``-0.0``: the difference of
    two equal floats is ``+0.0``).
    """
    if not values:
        return LatencySummary.empty()
    n = len(values)
    ordered = sorted(values)
    return LatencySummary(
        n,
        _pairwise_sum(values, 0, n) / n,
        _percentile(ordered, 0.5),
        _percentile(ordered, 0.95),
        _percentile(ordered, 0.99),
        ordered[-1],
    )


class LatencyRecorder:
    """Records per-operation latencies within an observation window."""

    def __init__(self, window_start: float = 0.0, window_end: float = math.inf):
        self.window_start = window_start
        self.window_end = window_end
        self._samples: List[float] = []

    def record(self, submitted_at: float, completed_at: float) -> None:
        """Record one operation if it *completed* inside the window."""
        if self.window_start <= completed_at <= self.window_end:
            self._samples.append(completed_at - submitted_at)

    def record_value(self, latency: float) -> None:
        self._samples.append(latency)

    @property
    def count(self) -> int:
        return len(self._samples)

    def summary(self) -> LatencySummary:
        return summarize_values(self._samples)

    def reset(self) -> None:
        self._samples.clear()


class ThroughputMeter:
    """Counts completions into fixed-width time buckets.

    ``series()`` yields the per-second timeline plotted in Figs. 5–7;
    ``rate()`` gives the average over a window, the "pps" of Fig. 3 /
    Table I.
    """

    def __init__(self, bucket_width: float = 1.0) -> None:
        if bucket_width <= 0:
            raise ValueError(f"bucket width must be positive: {bucket_width}")
        self.bucket_width = bucket_width
        self._buckets: Dict[int, int] = {}
        self.total = 0

    def record(self, at_time: float, count: int = 1) -> None:
        index = int(at_time / self.bucket_width)
        self._buckets[index] = self._buckets.get(index, 0) + count
        self.total += count

    def series(self, start: float, end: float) -> List[float]:
        """Per-bucket rates (ops/sec) for buckets fully inside [start, end)."""
        first = int(math.ceil(start / self.bucket_width))
        last = int(math.floor(end / self.bucket_width))
        return [
            self._buckets.get(i, 0) / self.bucket_width for i in range(first, last)
        ]

    def count_between(self, start: float, end: float) -> int:
        first = int(math.ceil(start / self.bucket_width))
        last = int(math.floor(end / self.bucket_width))
        return sum(self._buckets.get(i, 0) for i in range(first, last))

    def rate(self, start: float, end: float) -> float:
        """Average completion rate over [start, end).

        Computed over the bucket-aligned sub-window actually counted by
        :meth:`count_between`, so a window that is not a multiple of the
        bucket width does not bias the rate downward.

        When the window contains *no* fully aligned bucket (a tightly
        shrunk peak-search probe window can be narrower than one bucket),
        the aligned count is empty — returning 0.0 here used to read as
        "zero achieved", which a peak search misreads as total
        saturation.  Fall back to the overlapping buckets with each edge
        bucket weighted by its fractional overlap with [start, end):
        under the uniform-within-bucket assumption this is unbiased (and
        exact for steady traffic), where counting whole edge buckets
        would over-report without bound as the window shrinks.
        """
        width = self.bucket_width
        first = int(math.ceil(start / width))
        last = int(math.floor(end / width))
        covered = (last - first) * width
        if covered <= 0:
            span = end - start
            if span <= 0:
                return 0.0
            buckets = self._buckets
            count = 0.0
            for index in range(int(math.floor(start / width)),
                               int(math.ceil(end / width))):
                in_bucket = buckets.get(index, 0)
                if not in_bucket:
                    continue
                bucket_start = index * width
                overlap = min(end, bucket_start + width) - max(start, bucket_start)
                count += in_bucket * (overlap / width)
            return count / span
        return self.count_between(start, end) / covered

    def reset(self) -> None:
        self._buckets.clear()
        self.total = 0

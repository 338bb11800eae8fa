"""Benchmark scale control.

O(N²) protocols at the paper's largest sizes over 60-second windows are
out of reach for a CPython event loop inside a test suite, so the default
scale trims replica counts and window lengths while preserving every
qualitative claim.  ``REPRO_BENCH_SCALE=full`` restores the paper's
parameters; ``REPRO_BENCH_SCALE=smoke`` shrinks further for CI.

The scale knob never changes protocol logic — only N, durations, and
sweep granularity.  The per-experiment sizes are the fields of
:class:`BenchScale`, one instance per scale below.
The orthogonal ``REPRO_BENCH_JOBS`` knob (see ``repro.bench.parallel``)
controls how many scenario jobs of a sweep run concurrently; it never
changes results at all.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

__all__ = ["BenchScale", "current_scale"]


@dataclass(frozen=True)
class BenchScale:
    name: str
    #: Fig. 3 / Fig. 4 system sizes.
    fig3_sizes: Tuple[int, ...]
    fig4_size: int
    fig4_rates_per_system: int
    #: Figs. 5/6 system size (paper: 49) and Fig. 7 size (paper: 100).
    robustness_small_n: int
    robustness_large_n: int
    #: Observation window after warm-up, seconds (paper: 40 after 20).
    robustness_warmup: float
    robustness_window: float
    #: Table I: replicas per shard (paper: 52) and shard counts.
    table1_shard_size: int
    table1_shard_counts: Tuple[int, ...]
    table1_duration: float
    #: Fig. 8 join sweep sizes (paper: 4..80).
    fig8_sizes: Tuple[int, ...]
    #: Peak-search measurement window.
    peak_duration: float
    peak_warmup: float
    #: Peak-search cost knobs (see repro.bench.peak.find_peak): payments
    #: injected per probe, total probes per search, and whether passing
    #: probes may hand their warm system to the next probe.
    peak_payment_budget: int = 150_000
    peak_max_probes: int = 0  # 0 = unlimited
    peak_reuse_state: bool = False
    #: Payments injected by one Fig. 3 calibration anchor probe
    #: (see repro.bench.estimate); anchors run deliberately *below*
    #: saturation (capacity is read from bottleneck utilization), and
    #: this budget shrinks the probe window when the rate is high.
    anchor_payment_budget: int = 40_000

    @property
    def peak_probe_cap(self):
        """``max_probes`` value for find_peak (None when unlimited)."""
        return self.peak_max_probes if self.peak_max_probes > 0 else None


_SCALES = {
    "smoke": BenchScale(
        name="smoke",
        # 4 and 22 (not 10): Astro II's curve in this cost model is flat
        # through N≈16 — representative-side work spreads over more
        # replicas — and only turns downward past ~N=22, so a smaller
        # second size cannot demonstrate the paper's decay claim.
        fig3_sizes=(4, 22),
        fig4_size=10,
        fig4_rates_per_system=3,
        robustness_small_n=7,
        robustness_large_n=10,
        robustness_warmup=4.0,
        robustness_window=16.0,
        table1_shard_size=10,
        table1_shard_counts=(2,),
        table1_duration=2.0,
        fig8_sizes=(4, 10, 19),
        peak_duration=0.8,
        peak_warmup=0.6,
        peak_payment_budget=25_000,
        peak_max_probes=9,
        peak_reuse_state=True,
        anchor_payment_budget=6_000,
    ),
    "quick": BenchScale(
        name="quick",
        fig3_sizes=(4, 10, 16, 31),
        fig4_size=16,
        fig4_rates_per_system=4,
        robustness_small_n=13,
        robustness_large_n=25,
        robustness_warmup=8.0,
        robustness_window=24.0,
        table1_shard_size=16,
        table1_shard_counts=(2, 3, 4),
        table1_duration=2.5,
        fig8_sizes=(4, 10, 19, 31, 46, 61, 79),
        peak_duration=0.7,
        peak_warmup=0.5,
        peak_payment_budget=100_000,
        peak_max_probes=14,
        anchor_payment_budget=15_000,
    ),
    "full": BenchScale(
        name="full",
        fig3_sizes=tuple(range(4, 101, 6)),
        fig4_size=100,
        fig4_rates_per_system=8,
        robustness_small_n=49,
        robustness_large_n=100,
        robustness_warmup=20.0,
        robustness_window=40.0,
        table1_shard_size=52,
        table1_shard_counts=(2, 3, 4),
        table1_duration=8.0,
        fig8_sizes=tuple(range(4, 81, 4)),
        peak_duration=2.0,
        peak_warmup=1.5,
    ),
}


def current_scale() -> BenchScale:
    """Scale selected via ``REPRO_BENCH_SCALE`` (default: quick)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    if name not in _SCALES:
        raise ValueError(
            f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}, got {name!r}"
        )
    return _SCALES[name]

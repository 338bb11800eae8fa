"""Open-loop measurement runs: offered rate in, throughput/latency out."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..sim.metrics import LatencyRecorder, LatencySummary, ThroughputMeter
from ..workloads.base import make_workload, resolve_workload_name
from ..workloads.drivers import OpenLoopDriver
from .systems import client_ids_of

__all__ = ["RunResult", "run_open_loop", "setup_open_loop", "finish_open_loop"]


@dataclass
class RunResult:
    """Outcome of one measured open-loop window."""

    offered: float
    achieved: float
    latency: LatencySummary
    injected: int
    confirmed: int
    duration: float

    @property
    def goodput_ratio(self) -> float:
        """Achieved/offered — < 1 means the system is saturated."""
        if self.offered <= 0:
            return 0.0
        return self.achieved / self.offered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        p95 = self.latency.p95 * 1e3 if self.latency.count else float("nan")
        return (
            f"<RunResult offered={self.offered:.0f}pps "
            f"achieved={self.achieved:.0f}pps p95={p95:.0f}ms>"
        )


def setup_open_loop(
    system: Any,
    rate: float,
    duration: float,
    warmup: float,
    workload: Optional[Any] = None,
    seed: int = 0,
) -> Tuple[OpenLoopDriver, ThroughputMeter, LatencyRecorder, float, float]:
    """Install the standard open-loop measurement on ``system``.

    Returns ``(driver, meter, recorder, window_start, window_end)``.
    Factored out of :func:`run_open_loop` so a caller that steps the
    simulation itself (``perfbench/sim.py`` runs it in slices) gets the
    same workload construction, meter bucket width and observation
    window.
    """
    if workload is None:
        # ``REPRO_WORKLOAD`` selects the demand distribution; unset
        # resolves to ``uniform``, which constructs exactly the
        # pre-knob ``UniformWorkload(clients, seed=seed)`` default
        # (golden-pinned).
        workload = make_workload(
            resolve_workload_name(), client_ids_of(system), seed=seed
        )
    # The meter only counts whole buckets inside the window, so the bucket
    # width must shrink with the window: a 0.4s probe window against fixed
    # 0.25s buckets can contain zero aligned buckets and report a rate of
    # exactly 0 — which a peak search misreads as total saturation.
    meter = ThroughputMeter(bucket_width=min(0.25, duration / 4))
    window_start = system.sim.now + warmup
    window_end = window_start + duration
    recorder = LatencyRecorder(window_start, window_end)
    driver = OpenLoopDriver(
        system,
        workload,
        rate=rate,
        duration=warmup + duration,
        start=system.sim.now,
        meter=meter,
        recorder=recorder,
    )
    return driver, meter, recorder, window_start, window_end


def finish_open_loop(system: Any, driver: OpenLoopDriver) -> None:
    """Detach a finished run's observer from ``system``.

    When the caller reuses the system for a later run (peak-search warm
    probes), a stale hook would keep counting confirmations into this
    driver's meters and double-count them against the next run's.  The
    submission times of payments that never confirmed go with it.
    """
    remove_hook = getattr(system, "remove_confirm_hook", None)
    if remove_hook is not None:
        remove_hook(driver._on_confirm)
    driver._submitted.clear()


def run_open_loop(
    system: Any,
    rate: float,
    duration: float = 2.0,
    warmup: float = 1.0,
    workload: Optional[Any] = None,
    seed: int = 0,
) -> RunResult:
    """Drive ``system`` at ``rate`` payments/sec; measure the steady window.

    The measured window is [warmup, warmup+duration); the run continues
    half a second longer so confirmations of late submissions inside the
    window are still observed.
    """
    driver, meter, recorder, window_start, window_end = setup_open_loop(
        system, rate, duration, warmup, workload=workload, seed=seed
    )
    system.run(window_end + 0.5)
    finish_open_loop(system, driver)
    achieved = meter.rate(window_start, window_end)
    return RunResult(
        offered=rate,
        achieved=achieved,
        latency=recorder.summary(),
        injected=driver.injected,
        confirmed=driver.confirmed,
        duration=duration,
    )

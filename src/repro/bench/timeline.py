"""Robustness timelines (Figs. 5–7): per-second throughput under faults.

Reproduces the paper's §VI-D methodology: closed-loop clients (one request
in flight each), a warm-up period, a fault injected mid-run (crash-stop or
100 ms egress delay), and the per-second settled-payment series over the
observation window.

The fault is a :mod:`repro.transport.chaos` timeline string — the
grammar ``python -m repro.transport.cluster --chaos`` takes — so one
scenario line names the same experiment on either backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from ..sim.metrics import ThroughputMeter
from ..transport.chaos import (
    apply_timeline,
    check_replica_ids,
    parse_timeline,
)
from ..workloads.base import make_workload, resolve_workload_name
from ..workloads.drivers import ClosedLoopDriver
from .systems import client_ids_of

__all__ = ["TimelineResult", "run_timeline"]


@dataclass
class TimelineResult:
    """Per-second throughput series plus summary statistics."""

    series: List[float]
    window_start: float
    fault_at: Optional[float]
    completed: int

    def average(self, start: int = 0, end: Optional[int] = None) -> float:
        segment = self.series[start:end]
        if not segment:
            return 0.0
        return sum(segment) / len(segment)

    def before_fault(self) -> float:
        """Mean throughput in the pre-fault portion of the window."""
        if self.fault_at is None:
            return self.average()
        split = int(self.fault_at - self.window_start)
        return self.average(0, max(split, 1))

    def after_fault(self, settle_gap: int = 2) -> float:
        """Mean throughput after the fault (skipping ``settle_gap`` s)."""
        if self.fault_at is None:
            return self.average()
        split = int(self.fault_at - self.window_start) + settle_gap
        return self.average(split)

    def min_after_fault(self) -> float:
        if self.fault_at is None:
            return min(self.series) if self.series else 0.0
        split = int(self.fault_at - self.window_start)
        tail = self.series[split:]
        return min(tail) if tail else 0.0


def run_timeline(
    system: Any,
    num_clients: int = 10,
    warmup: float = 20.0,
    window: float = 40.0,
    timeline: str = "",
    seed: int = 0,
    split: Optional[float] = None,
) -> TimelineResult:
    """Run the §VI-D experiment shape on ``system``.

    ``timeline`` — e.g. ``"crash:0@10"`` — is scheduled on
    ``system.faults`` with its times relative to the start of the
    observation window, as on the live CLI (the paper warms up 20 s and
    injects at 30 s); one that names a replica ``system`` does not have
    is a ``ValueError``, as there.  The before/after statistics divide
    ``split`` seconds into the window: by default at the first event,
    and a caller whose fault is not a timeline event (an adversary's arm
    time) names it.  Demand comes from the ``REPRO_WORKLOAD`` distribution, like the
    genesis the builders gave ``system``.
    """
    population = client_ids_of(system)
    active = population[:num_clients]
    workload = make_workload(resolve_workload_name(), population, seed=seed)
    meter = ThroughputMeter(bucket_width=1.0)
    end = warmup + window
    driver = ClosedLoopDriver(
        system,
        active,
        workload,
        stop_at=end,
        meter=meter,
    )
    events = parse_timeline(timeline)
    check_replica_ids(events, len(system.replicas))
    apply_timeline(system.faults, events, start=warmup)
    if split is None and events:
        split = events[0].at
    system.run(end)
    return TimelineResult(
        series=meter.series(warmup, end),
        window_start=warmup,
        fault_at=None if split is None else warmup + split,
        completed=driver.completed,
    )

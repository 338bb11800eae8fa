"""Standard scenario functions for the parallel benchmark backend.

Each function rebuilds its simulator *inside the worker process* from a
:class:`~repro.bench.parallel.ScenarioJob`'s picklable params, runs one
self-contained measurement, and returns only small result objects
(:class:`~repro.bench.runner.RunResult`,
:class:`~repro.bench.peak.PeakResult`, tuples of floats).  Nothing
heavyweight — no simulators, networks, or replicas — ever crosses the
process boundary.

The figure modules (``fig3``/``fig4``/``ablations``/``robustness``) put
these functions in their jobs' ``fn``; ``table1``, ``fig8`` and
``bench.adversary`` name their own measurement functions the same way.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, List, Optional, Tuple

from ..consensus.config import BftConfig
from .peak import SATURATION_GOODPUT, PeakResult, find_peak, shrink_window
from .runner import RunResult, run_open_loop
from .systems import SYSTEM_BUILDERS
from .timeline import TimelineResult, run_timeline

__all__ = [
    "exec_estimate_anchor",
    "exec_fig4_curve",
    "exec_find_peak",
    "exec_open_loop_messages",
    "exec_timeline",
]


# ---------------------------------------------------------------------------
# Peak searches (Fig. 3, Fig. 4's anchor, batching ablation)
# ---------------------------------------------------------------------------


def _system_factory(system: str, size: int, seed: int,
                    builder_kwargs: Optional[Dict[str, Any]] = None):
    builder = SYSTEM_BUILDERS[system]
    return functools.partial(builder, size, seed=seed, **(builder_kwargs or {}))


def exec_find_peak(
    seed: int,
    system: str,
    size: int,
    start_rate: float,
    duration: float,
    warmup: float,
    refine_steps: int = 2,
    payment_budget: int = 150_000,
    max_probes: Optional[int] = None,
    reuse_state: bool = False,
    bracket: Optional[Tuple[float, float]] = None,
    builder_kwargs: Optional[Dict[str, Any]] = None,
) -> PeakResult:
    """One whole peak-throughput search (internally adaptive = one job)."""
    return find_peak(
        _system_factory(system, size, seed, builder_kwargs),
        start_rate=start_rate,
        duration=duration,
        warmup=warmup,
        refine_steps=refine_steps,
        seed=seed,
        payment_budget=payment_budget,
        max_probes=max_probes,
        reuse_state=reuse_state,
        bracket=tuple(bracket) if bracket is not None else None,
    )


def exec_estimate_anchor(
    seed: int,
    system: str,
    size: int,
    rate: float,
    duration: float,
    warmup: float,
    payment_budget: int = 12_000,
) -> Dict[str, float]:
    """One cheap sub-saturation probe (Fig. 3 calibration anchor).

    Offered ``rate`` sits safely *below* the analytic capacity estimate;
    the bottleneck resource's measured utilization then extrapolates
    linearly to capacity (deterministic service times make per-payment
    cost rate-independent once batches fill): ``capacity ≈ rate / u``.
    This reads the whole peak-vs-N scale from a probe costing only
    ``rate × window`` simulated payments — a saturating probe against an
    overestimated analytic rate would cost an unbounded multiple of the
    true capacity.  If the probe saturated anyway (analytic estimate far
    too high), the achieved rate itself is the capacity reading.
    """
    duration, warmup = shrink_window(rate, duration, warmup, payment_budget)
    built = SYSTEM_BUILDERS[system](size, seed=seed)
    result = run_open_loop(
        built, rate=rate, duration=duration, warmup=warmup, seed=seed
    )
    # Utilization over the *injection* window only: the run continues
    # into an idle drain (sim.now includes it), which would dilute the
    # reading and inflate the extrapolated capacity.
    elapsed = warmup + duration
    utilization = 0.0
    for replica in built.replicas:
        transport = getattr(replica, "transport", replica)
        utilization = max(
            utilization,
            transport.cpu.utilization(elapsed),
            transport.link.utilization(elapsed),
        )
    if result.goodput_ratio < SATURATION_GOODPUT or utilization >= 0.99:
        capacity = result.achieved  # saturated: achieved reads capacity
    else:
        capacity = result.offered / max(utilization, 1e-3)
    return {
        "capacity_pps": capacity,
        "offered": result.offered,
        "achieved": result.achieved,
        "utilization": utilization,
    }


# ---------------------------------------------------------------------------
# Open-loop runs with message accounting (message-complexity ablation)
# ---------------------------------------------------------------------------


def exec_open_loop_messages(
    seed: int,
    system: str,
    size: int,
    rate: float,
    duration: float,
    warmup: float,
) -> Tuple[RunResult, int]:
    """Returns ``(RunResult, wire messages sent during the run)``."""
    built = SYSTEM_BUILDERS[system](size, seed=seed)
    before = built.network.stats.messages_sent
    result = run_open_loop(
        built, rate=rate, duration=duration, warmup=warmup, seed=seed
    )
    return result, built.network.stats.messages_sent - before


# ---------------------------------------------------------------------------
# Fig. 4 latency/throughput curves (peak anchor + sampled points)
# ---------------------------------------------------------------------------


def exec_fig4_curve(
    seed: int,
    system: str,
    size: int,
    points: int,
    start_rate: float,
    duration: float,
    warmup: float,
) -> List[Tuple[float, float, float]]:
    """One system's whole curve: the sampled rates depend on the measured
    peak, so the sweep is a single sequential job per system."""
    factory = _system_factory(system, size, seed)
    peak = find_peak(
        factory,
        start_rate=start_rate,
        duration=duration,
        warmup=warmup,
        refine_steps=2,
        seed=seed,
    )
    curve: List[Tuple[float, float, float]] = []
    for step in range(1, points + 1):
        rate = peak.peak_pps * step / points
        if rate < 1:
            continue
        result = run_open_loop(
            factory(), rate=rate, duration=duration, warmup=warmup, seed=seed
        )
        if result.latency.count:
            curve.append(
                (result.achieved, result.latency.mean, result.latency.p95)
            )
    return curve


# ---------------------------------------------------------------------------
# Robustness timelines (Figs. 5–7)
# ---------------------------------------------------------------------------

#: BftConfig overrides for the Fig. 6 leader-timeout variants.  The
#: aggressive timeout must sit between healthy request latency (~40 ms)
#: and latency under a 100 ms-slowed leader (~200 ms), so the slow leader
#: is deposed but a healthy one never is (§VI-D's tuning trade-off).
_BFT_VARIANTS: Dict[str, Dict[str, Any]] = {
    "patient": {"request_timeout": 30.0},
    "aggressive": {"request_timeout": 0.12, "timeout_check_interval": 0.05},
}


def _build_timeline_system(system: str, variant: Optional[str], size: int,
                           seed: int):
    kwargs: Dict[str, Any] = {}
    if variant is not None:
        if system != "bft":
            raise ValueError(f"config variant {variant!r} only applies to bft")
        kwargs["config"] = BftConfig(num_replicas=size, **_BFT_VARIANTS[variant])
    return SYSTEM_BUILDERS[system](size, seed=seed, **kwargs)


def exec_timeline(
    seed: int,
    system: str,
    size: int,
    timeline: str,
    num_clients: int,
    warmup: float,
    window: float,
    variant: Optional[str] = None,
) -> TimelineResult:
    built = _build_timeline_system(system, variant, size, seed)
    return run_timeline(
        built,
        num_clients=num_clients,
        warmup=warmup,
        window=window,
        timeline=timeline,
        seed=seed,
    )

"""Peak-throughput search (Fig. 3's measurement procedure).

The paper reports "peak throughput, i.e., before latency saturates"
(§VI-C1).  The search doubles the offered rate until the system saturates
(goodput falls or tail latency exceeds the envelope), then refines by
bisection.  Every probe runs on a *fresh* system so state from an
overloaded probe never pollutes the next.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from ..sim.metrics import LatencySummary
from .runner import RunResult, run_open_loop

__all__ = ["PeakResult", "SATURATION_GOODPUT", "find_peak", "shrink_window"]

#: A probe whose achieved/offered ratio falls below this is saturated.
#: Shared with the estimator's calibration anchors (repro.bench.jobs),
#: which must judge saturation exactly like the searches they seed.
SATURATION_GOODPUT = 0.85

#: Tail-latency envelope (p95 seconds) a probe must stay inside.
LATENCY_ENVELOPE = 1.5


def shrink_window(
    rate: float, duration: float, warmup: float, payment_budget: int
) -> Tuple[float, float]:
    """Probe window scaled so ``rate`` injects at most ``payment_budget``
    payments, floored where throughput measurement stays meaningful.

    The single window discipline shared by every measurement probe —
    peak-search probes here and the estimator's calibration anchors
    (:mod:`repro.bench.jobs`) — so the anchors always observe the same
    window regime as the searches they seed.
    """
    shrink = min(1.0, payment_budget / (rate * (warmup + duration)))
    return max(duration * shrink, 0.4), max(warmup * shrink, 0.3)


@dataclass
class PeakResult:
    """Peak throughput of one system configuration."""

    peak_pps: float
    latency: LatencySummary
    probes: List[RunResult]
    #: Index into ``probes`` of the measurement ``peak_pps`` reports —
    #: the best passing probe, or (saturated-plateau fallback) the
    #: failing probe with the highest achieved rate.
    peak_probe_index: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PeakResult {self.peak_pps:.0f} pps over {len(self.probes)} probes>"


def _probe_ok(result: RunResult) -> bool:
    if result.goodput_ratio < SATURATION_GOODPUT:
        return False
    if result.latency.count == 0:
        return False
    return result.latency.p95 <= LATENCY_ENVELOPE


def find_peak(
    factory: Callable[[], Any],
    start_rate: float = 500.0,
    duration: float = 1.5,
    warmup: float = 1.0,
    max_doublings: int = 12,
    refine_steps: int = 3,
    seed: int = 0,
    workload_factory: Optional[Callable[[Any], Any]] = None,
    payment_budget: int = 150_000,
    max_probes: Optional[int] = None,
    reuse_state: bool = False,
    bracket: Optional[Tuple[float, float]] = None,
) -> PeakResult:
    """Find peak sustainable throughput for systems built by ``factory``.

    ``workload_factory(system)`` supplies a non-default workload (e.g.
    Smallbank) for each probe; omitted, probes use uniform payments.
    ``payment_budget`` bounds the payments injected per probe: very
    high-rate (overload-detection) probes shrink their windows so the
    search's wall-clock cost stays proportional to system capacity, not
    to the offered rate.

    ``max_probes`` caps the total number of probes across all search
    phases (doubling, walk-down, refinement) — the primary wall-clock
    knob for smoke-scale CI runs.

    ``reuse_state`` relaxes the fresh-system-per-probe rule where the
    invariant allows: a probe whose system *quiesced* — it passed the
    latency envelope AND (almost) every injected payment confirmed before
    the drain ended — leaves no backlog behind, so the next probe may
    continue on it, warm.  A probe that fails, or passes with residual
    in-flight payments (which would leak confirmations into the next
    probe's measured window and inflate its throughput), poisons its
    system; it is discarded and the next probe starts fresh.  Off by
    default to preserve the paper's measurement procedure exactly.

    ``bracket`` — an estimated ``(low_hint, high_hint)`` range believed to
    contain the peak (e.g. from :mod:`repro.bench.estimate`) — replaces
    the cold doubling phase with two probes: ``low_hint`` (expected to
    pass) and ``high_hint`` (expected to fail), after which refinement
    bisects between them.  A wrong hint degrades gracefully: a passing
    ``high_hint`` resumes doubling above it, a failing ``low_hint`` falls
    into the standard walk-down.  ``start_rate`` is ignored when a
    bracket is supplied.
    """
    probes: List[RunResult] = []
    #: One-slot cache holding a system left quiesced by a passing probe.
    warm: List[Any] = []

    def probe(rate: float) -> RunResult:
        probe_duration, probe_warmup = shrink_window(
            rate, duration, warmup, payment_budget
        )
        if reuse_state and warm:
            system = warm.pop()
        else:
            # Scenario boundary: the previous probe's system is cyclic
            # garbage; reclaim it before the rebuild (repro.sim.events,
            # "Collector policy").
            gc.collect()
            system = factory()
        workload = (
            workload_factory(system) if workload_factory is not None else None
        )
        result = run_open_loop(
            system,
            rate=rate,
            duration=probe_duration,
            warmup=probe_warmup,
            seed=seed,
            workload=workload,
        )
        probes.append(result)
        quiesced = (
            reuse_state
            and _probe_ok(result)
            and result.injected - result.confirmed
            <= max(16, result.injected // 100)
        )
        if quiesced:
            warm.append(system)
        return result

    def budget_left() -> bool:
        return max_probes is None or len(probes) < max_probes

    def index_of(result: RunResult) -> int:
        """Position of ``result`` in the probe history (identity, not
        value equality — two probes can measure identical numbers)."""
        return next(i for i, p in enumerate(probes) if p is result)

    best: Optional[RunResult] = None
    failing: Optional[RunResult] = None
    rate = start_rate
    skip_doubling = False
    if bracket is not None:
        low_hint, high_hint = bracket
        if not (0.0 < low_hint < high_hint):
            raise ValueError(
                f"bracket must satisfy 0 < low < high, got {bracket!r}"
            )
        # Estimated-bracket phase: one probe at each hint.  When the
        # estimate is right this replaces the whole doubling ladder.
        rate = low_hint
        if budget_left():
            result = probe(low_hint)
            if _probe_ok(result):
                best = result
                rate = high_hint
                if budget_left():
                    result = probe(high_hint)
                    if _probe_ok(result):
                        # Estimate too low: resume doubling above the hint.
                        best = result
                        rate = high_hint * 2.0
                    else:
                        failing = result
                        skip_doubling = True
            # else: the low hint already saturates — fall through with
            # best None, entering the standard walk-down from low_hint.
    if not skip_doubling and (best is not None or bracket is None):
        for _ in range(max_doublings):
            if not budget_left():
                break
            result = probe(rate)
            if _probe_ok(result):
                best = result
                rate *= 2.0
            else:
                failing = result
                break
    if best is None:
        # Even the starting rate saturates: walk down instead.
        while rate > 1.0 and budget_left():
            rate /= 2.0
            result = probe(rate)
            if _probe_ok(result):
                best = result
                break
        if best is None:
            if not probes:
                # A zero probe budget (or a start rate already <= 1)
                # never measured anything; there is no plateau to report.
                raise ValueError(
                    "find_peak ran no probes: max_probes must allow at "
                    f"least one probe (got {max_probes}) and start_rate "
                    f"must exceed 1.0 (got {start_rate})"
                )
            # Report the saturated plateau as the achievable rate.  Every
            # probe in the history failed; report the *best-measured*
            # plateau, not the last probe — under ``reuse_state`` the last
            # walk-down probe can be poisoned by an earlier overload probe
            # and read far below the true plateau.
            winner = max(range(len(probes)), key=lambda i: probes[i].achieved)
            plateau = probes[winner]
            return PeakResult(
                plateau.achieved, plateau.latency, probes,
                peak_probe_index=winner,
            )
        # The last failing probe brackets the bisection from above.  Under
        # a tight ``max_probes`` the history can be a single passing probe
        # (e.g. max_doublings=0), in which case there is no upper bracket
        # and refinement is skipped.
        failing = probes[-2] if len(probes) >= 2 else None
    if failing is not None:
        low, high = best.offered, failing.offered
        for _ in range(refine_steps):
            if not budget_left():
                break
            mid = (low + high) / 2.0
            result = probe(mid)
            if _probe_ok(result):
                best = result
                low = mid
            else:
                high = mid
    return PeakResult(
        best.achieved, best.latency, probes, peak_probe_index=index_of(best)
    )

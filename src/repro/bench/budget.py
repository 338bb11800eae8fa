"""Per-cell wall-clock budgets for the full-scale Fig. 3 sweep.

The scheduled ``fig3-full`` workflow (``.github/workflows/fig3-full.yml``)
runs ``REPRO_BENCH_SCALE=full`` Fig. 3 end-to-end and must fail loudly
when any (system, size) cell gets dramatically slower — a harness
regression (e.g. a calendar-queue change that turns a cell quadratic)
would otherwise only surface as a silently longer nightly run.  This
module supplies that guard in three pieces:

1. an **analytic cost model**: simulated events a cell will process,
   derived from the same scale knobs and capacity curve the sweep itself
   uses (:mod:`repro.bench.estimate`);
2. a **host calibration** kernel: a short heap-churn microbenchmark
   whose throughput converts model events into wall-clock seconds on
   *this* machine, so budgets travel with the artifact instead of
   assuming CI hardware;
3. a **checker CLI** (``python -m repro.bench.budget BENCH_sweeps.json``)
   that exits non-zero when any recorded cell exceeded its budget.

Budgets are attached to cells at enumeration time (``run_fig3`` passes
them into :func:`repro.bench.parallel.execute`, which records a
``"budget_seconds"`` field next to each cell's measured ``"seconds"`` in
``BENCH_sweeps.json``), so the checker never recomputes the model — it
audits exactly what the measuring host promised.

The model is deliberately generous (safety factor ≈ 4×): it exists to
catch multi-x blowups, not scheduler noise.  ``REPRO_BUDGET_FACTOR``
scales every budget (e.g. ``2.0`` on a noisy shared runner).
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..brb.batching import DEFAULT_BATCH_SIZE as _BATCH
from .estimate import analytic_capacity
from .scale import BenchScale, current_scale

__all__ = [
    "check_report",
    "fig3_anchor_budget_seconds",
    "fig3_budgets",
    "fig3_cell_budget_seconds",
    "host_events_per_second",
]

#: Environment knob.
FACTOR_ENV = "REPRO_BUDGET_FACTOR"

#: Headroom multiplier baked into every budget: the model only has to be
#: right within ~4× for the guard to separate regressions from noise.
SAFETY_FACTOR = 4.0

#: Smallest budget ever emitted — tiny cells are all constant overhead
#: (interpreter start, system build) that the event model does not see.
MIN_BUDGET_SECONDS = 10.0

#: Calibration-kernel throughput of the reference host (the dev
#: container the event-cost constant below was fitted on).  Budgets on
#: other machines scale by ``measured_eps / _REFERENCE_EPS``.
_REFERENCE_EPS = 2.0e6

#: Wall-clock seconds one *model* event costs on the reference host.
#: Fitted against measured smoke/quick Fig. 3 cell timings (the real
#: simulator does far more per event than the calibration kernel:
#: resource accounting, latency draws, crypto cost bookkeeping).
_REFERENCE_SECONDS_PER_EVENT = 2.0e-5

#: Probe count assumed for scales with an unlimited ``max_probes``
#: (full): bracket hints + doubling walk + two refinement bisections.
_UNCAPPED_PROBES = 16


def _events_per_payment(system: str, size: int) -> float:
    """Model events one injected payment triggers, amortized over a batch.

    Coarse by design — see the module docstring.  Per batch: Astro II
    ships O(N) messages (PREPARE fan-out, quorum ACKs, CREDIT unicasts),
    Astro I's echo BRB and the BFT baseline's two quorum phases are both
    O(N²); every system settles the batch at all N replicas.  The
    constant term covers injection, confirmation, and latency sampling.
    """
    if system == "astro2":
        per_batch = 8.0 * size
    elif system == "astro1":
        per_batch = 2.5 * size * size
    elif system == "bft":
        per_batch = 2.5 * size * size
    else:
        raise ValueError(f"unknown system {system!r}")
    return 6.0 + (per_batch + size) / _BATCH


def _build_events(size: int) -> float:
    """Cold-start construction cost per probe, in model events (latency
    tables and genesis state grow with the square of the population)."""
    population = 5 * size + 64
    return 10_000.0 + 4.0 * population * population


def host_events_per_second(sample_events: int = 200_000) -> float:
    """Calibration-kernel throughput of this host (memoized).

    The kernel churns a bounded heap of ``(time, seq, key)`` tuples with
    a little dict bookkeeping per event — the shape of the simulator's
    inner loop.  Only the *ratio* to :data:`_REFERENCE_EPS` is used.
    Tests pin the calibration by setting the memo
    (``host_events_per_second._cached``).
    """
    cached = getattr(host_events_per_second, "_cached", None)
    if cached is not None:
        return cached
    heap: List[Tuple[float, int, int]] = []
    state: Dict[int, float] = {}
    push, pop = heapq.heappush, heapq.heappop
    started = time.perf_counter()
    for index in range(sample_events):
        push(heap, (index * 1e-4, index, index & 1023))
        if len(heap) > 64:
            when, seq, key = pop(heap)
            state[key] = when + seq
    elapsed = time.perf_counter() - started
    eps = sample_events / max(elapsed, 1e-9)
    host_events_per_second._cached = eps
    return eps


def _budget_factor() -> float:
    raw = os.environ.get(FACTOR_ENV)
    if raw is None:
        return 1.0
    factor = float(raw)
    if factor <= 0:
        raise ValueError(f"{FACTOR_ENV} must be > 0, got {raw!r}")
    return factor


def _seconds_for_events(events: float) -> float:
    speed = host_events_per_second() / _REFERENCE_EPS
    seconds = events * _REFERENCE_SECONDS_PER_EVENT / max(speed, 1e-6)
    return max(MIN_BUDGET_SECONDS, seconds * SAFETY_FACTOR * _budget_factor())


def fig3_cell_budget_seconds(
    system: str, size: int, scale: Optional[BenchScale] = None
) -> float:
    """Wall-clock budget for one Fig. 3 ``find_peak`` cell.

    Every probe simulates ``warmup + duration`` seconds at rates the
    search brackets around the analytic capacity; the payment budget
    caps what an over-rate probe can cost.
    """
    if scale is None:
        scale = current_scale()
    capacity = analytic_capacity(system, size)
    window = scale.peak_duration + scale.peak_warmup
    payments_per_probe = min(
        float(scale.peak_payment_budget), 1.35 * capacity * window
    )
    probes = scale.peak_probe_cap or _UNCAPPED_PROBES
    events = probes * (
        payments_per_probe * _events_per_payment(system, size)
        + _build_events(size)
    )
    return _seconds_for_events(events)


def fig3_anchor_budget_seconds(
    system: str, size: int, scale: Optional[BenchScale] = None
) -> float:
    """Budget for one sub-saturation calibration anchor probe."""
    if scale is None:
        scale = current_scale()
    capacity = analytic_capacity(system, size)
    window = scale.peak_duration + scale.peak_warmup
    payments = min(
        float(scale.anchor_payment_budget), 0.25 * capacity * window
    )
    events = payments * _events_per_payment(system, size) + _build_events(size)
    return _seconds_for_events(events)


def fig3_budgets(
    sizes: Sequence[int],
    systems: Sequence[str],
    scale: Optional[BenchScale] = None,
    anchors: bool = False,
) -> Dict[Any, float]:
    """Per-tag budget map for :func:`repro.bench.parallel.execute`.

    Tags mirror Fig. 3's unit tags: ``(system, size)`` tuples.  With
    ``anchors=True`` the anchor-probe model is used instead of the full
    peak-search model.
    """
    if scale is None:
        scale = current_scale()
    budget = fig3_anchor_budget_seconds if anchors else fig3_cell_budget_seconds
    return {
        (system, size): round(budget(system, size, scale), 2)
        for system in systems
        for size in sizes
    }


# ---------------------------------------------------------------------------
# Checker
# ---------------------------------------------------------------------------


def check_report(report: Dict[str, Any]) -> Tuple[List[str], int]:
    """Audit one ``BENCH_sweeps.json`` document.

    Returns ``(violations, budgeted_cells)``: human-readable violation
    lines for every cell whose measured ``seconds`` exceeded its recorded
    ``budget_seconds``, and how many cells carried a budget at all.
    """
    violations: List[str] = []
    budgeted = 0
    for sweep in report.get("sweeps", []):
        for cell in sweep.get("cells") or []:
            budget = cell.get("budget_seconds")
            if budget is None:
                continue
            budgeted += 1
            seconds = cell.get("seconds", 0.0)
            if seconds > budget:
                violations.append(
                    f"{sweep.get('label', '?')} cell {cell.get('tag')!r}: "
                    f"{seconds:.2f}s exceeds budget {budget:.2f}s "
                    f"({seconds / budget:.2f}x)"
                )
    return violations, budgeted


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.budget",
        description=(
            "Assert every budgeted sweep cell in a BENCH_sweeps.json "
            "finished within its recorded wall-clock budget."
        ),
    )
    parser.add_argument(
        "report", help="path to BENCH_sweeps.json (or a merged BENCH_perf.json)"
    )
    parser.add_argument(
        "--allow-empty",
        action="store_true",
        help="succeed even if no cell carries a budget_seconds field "
        "(default: that is an error — the wiring is broken)",
    )
    args = parser.parse_args(argv)
    with open(args.report) as handle:
        document = json.load(handle)
    # A merged BENCH_perf.json nests the sweep report under "sweeps".
    report = document
    if "sweeps" in document and isinstance(document["sweeps"], dict):
        report = document["sweeps"]
    violations, budgeted = check_report(report)
    if violations:
        print(f"{len(violations)} budget violation(s):")
        for line in violations:
            print(f"  - {line}")
        return 1
    if budgeted == 0 and not args.allow_empty:
        print(
            "no budgeted cells found in the report — fig3 budget wiring "
            "is broken (pass --allow-empty to tolerate)"
        )
        return 1
    print(f"all {budgeted} budgeted cell(s) within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())

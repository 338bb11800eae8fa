"""Fig. 3 — peak throughput vs system size, three systems (§VI-C1).

Paper anchors (single shard, EU WAN, batch 256):

* N=4:   BFT-SMaRt >10K pps, Astro I ≈13.5K pps, Astro II ≈55K pps;
* N=100: BFT-SMaRt ≈334 pps, Astro I ≈2K pps (6×), Astro II ≈5K pps (16×).

The reproduced claims: broadcast beats consensus at every size, Astro II
beats Astro I, and all three decay with N (quorum systems).

Execution: every (system, size) cell is an independent cold-start job,
so a full-scale sweep (17 sizes × 3 systems) fans out across every
available worker.  Each cell's peak search is seeded with an estimated
``(low, high)`` bracket from :mod:`repro.bench.estimate` — the analytic
peak-vs-N curve calibrated by up to two cheap sub-saturation anchor
probes per system at the smallest sizes (a short
``len(systems × anchors)``-job phase that precedes the main fan-out).
The estimate can only cost probes, never correctness: ``find_peak``
validates its own bracket (a passing high hint resumes doubling, a
failing low hint walks down).  Results are byte-identical across worker
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .estimate import ANCHOR_RATE_FRACTION, analytic_capacity, estimate_peaks
from .jobs import exec_estimate_anchor, exec_find_peak
from .parallel import ScenarioJob, execute
from .report import format_table, kilo
from .scale import BenchScale, current_scale
from .systems import validate_systems

__all__ = ["Fig3Result", "run_fig3"]

_LABELS = {
    "bft": "Consensus (BFT-SMaRt)",
    "astro1": "Astro I (echo BRB)",
    "astro2": "Astro II (signed BRB)",
}

#: Calibration anchors per system: at most this many of the smallest
#: sizes get a saturating probe (two anchor points let the estimator
#: correct the analytic curve's slope, not just its scale).
_MAX_ANCHORS = 2

#: Bisections every cell's peak search runs after bracketing.
REFINE_STEPS = 2


@dataclass
class Fig3Result:
    sizes: List[int]
    peaks: Dict[str, List[float]]  # system -> peak pps per size
    #: Probes spent per cell (same keys/order as ``peaks``) — the cost
    #: record the tier-2 probe-ceiling guard audits.
    probe_counts: Dict[str, List[int]] = field(default_factory=dict)
    #: Calibration anchor probes run before the cell sweep (counted so
    #: the probe ceiling covers everything the estimator costs).
    anchor_probes: int = 0

    @property
    def total_probes(self) -> int:
        """Every simulation window this figure paid for."""
        return self.anchor_probes + sum(
            count for series in self.probe_counts.values() for count in series
        )

    def table(self) -> str:
        # Iterate this result's own systems (run_fig3 may have measured a
        # subset of the three), not a hard-coded tuple.
        names = list(self.peaks)
        headers = ["N"] + [_LABELS.get(name, name) for name in names]
        rows = []
        for index, size in enumerate(self.sizes):
            rows.append(
                [size] + [kilo(self.peaks[name][index]) for name in names]
            )
        return format_table(
            headers, rows,
            title="Fig. 3 — peak throughput (pps) vs system size",
        )


def run_fig3(
    sizes: Sequence[int] = (),
    seed: int = 0,
    scale: Optional[BenchScale] = None,
    systems: Sequence[str] = ("bft", "astro1", "astro2"),
    jobs: Optional[int] = None,
) -> Fig3Result:
    if scale is None:
        scale = current_scale()
    systems = validate_systems(systems)
    sizes = list(sizes) if sizes else list(scale.fig3_sizes)

    # Phase 1 — calibration anchors: one sub-saturation probe per
    # (system, anchor size).  Cheap (budget-capped), short, and the only
    # sequential dependency left in the whole figure.
    anchor_sizes = sorted(set(sizes))[:_MAX_ANCHORS]
    anchor_units = [
        ScenarioJob(
            fn=exec_estimate_anchor,
            params=dict(
                system=name,
                size=size,
                rate=ANCHOR_RATE_FRACTION * analytic_capacity(name, size),
                duration=scale.peak_duration,
                warmup=scale.peak_warmup,
                payment_budget=scale.anchor_payment_budget,
            ),
            seed=seed,
            tag=(name, size),
        )
        for name in systems
        for size in anchor_sizes
    ]
    anchor_results = execute(
        anchor_units, jobs=jobs, label=f"fig3-anchors[{scale.name}]"
    )
    anchors: Dict[str, Dict[int, float]] = {name: {} for name in systems}
    for unit, result in zip(anchor_units, anchor_results):
        name, size = unit.tag
        anchors[name][size] = result["capacity_pps"]

    # Phase 2 — the sweep proper: one independent cold-start job per
    # (system, size) cell, seeded with the calibrated bracket.
    estimates = {
        name: estimate_peaks(name, sizes, anchors[name]) for name in systems
    }
    units = [
        ScenarioJob(
            fn=exec_find_peak,
            params=dict(
                system=name,
                size=size,
                start_rate=estimates[name][size].capacity_pps,
                bracket=estimates[name][size].bracket,
                duration=scale.peak_duration,
                warmup=scale.peak_warmup,
                refine_steps=REFINE_STEPS,
                payment_budget=scale.peak_payment_budget,
                max_probes=scale.peak_probe_cap,
                reuse_state=scale.peak_reuse_state,
            ),
            seed=seed,
            tag=(name, size),
        )
        for name in systems
        for size in sizes
    ]
    results = execute(units, jobs=jobs, label=f"fig3[{scale.name}]")
    cells: Dict[str, List] = {name: [] for name in systems}
    for unit, peak in zip(units, results):
        cells[unit.tag[0]].append(peak)
    return Fig3Result(
        sizes=sizes,
        peaks={
            name: [peak.peak_pps for peak in series]
            for name, series in cells.items()
        },
        probe_counts={
            name: [len(peak.probes) for peak in series]
            for name, series in cells.items()
        },
        anchor_probes=len(anchor_units),
    )

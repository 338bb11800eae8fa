"""Fig. 4 — latency vs throughput at the largest system size (§VI-C1).

Paper observations at N=100: the consensus baseline runs at sub-second
average latency (p95 1.3–1.5 s) up to ≈334 pps; Astro I sits at
400–500 ms up to ≈2K pps; Astro II at ≈200 ms average (p95 <240 ms at low
load) up to ≈5K pps.  The reproduced claims: Astro II has the lowest and
flattest latency curve, Astro I sits between, and each system's curve
bends upward as it approaches its Fig. 3 saturation point.

Execution model: one ``fig4_curve`` job per system (the sampled rates
depend on that system's measured peak, so a curve is internally
sequential); the three systems' curves run concurrently on the parallel
backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .jobs import exec_fig4_curve
from .parallel import ScenarioJob, execute
from .report import format_table
from .scale import BenchScale, current_scale
from .systems import validate_systems

__all__ = ["Fig4Result", "run_fig4"]

_START_RATES = {"bft": 400.0, "astro1": 2000.0, "astro2": 4000.0}


@dataclass
class Fig4Result:
    size: int
    #: system -> list of (throughput pps, mean latency s, p95 latency s)
    curves: Dict[str, List[Tuple[float, float, float]]]

    def table(self) -> str:
        headers = ["system", "throughput (pps)", "mean latency (ms)", "p95 (ms)"]
        rows = []
        for name, curve in self.curves.items():
            for throughput, mean, p95 in curve:
                rows.append(
                    [name, f"{throughput:.0f}", f"{mean * 1e3:.0f}", f"{p95 * 1e3:.0f}"]
                )
        return format_table(
            headers, rows,
            title=f"Fig. 4 — latency/throughput at N={self.size}",
        )


def run_fig4(
    size: int = 0,
    points: int = 0,
    seed: int = 0,
    scale: Optional[BenchScale] = None,
    systems: Sequence[str] = ("bft", "astro1", "astro2"),
    jobs: Optional[int] = None,
) -> Fig4Result:
    if scale is None:
        scale = current_scale()
    systems = validate_systems(systems)
    if size == 0:
        size = scale.fig4_size
    if points == 0:
        points = scale.fig4_rates_per_system
    units = [
        ScenarioJob(
            fn=exec_fig4_curve,
            params=dict(
                system=name,
                size=size,
                points=points,
                start_rate=_START_RATES[name],
                duration=scale.peak_duration,
                warmup=scale.peak_warmup,
            ),
            seed=seed,
            tag=name,
        )
        for name in systems
    ]
    results = execute(units, jobs=jobs, label=f"fig4[{scale.name}]")
    return Fig4Result(size=size, curves=dict(zip(systems, results)))

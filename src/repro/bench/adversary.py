"""Byzantine robustness suite: throughput-under-attack timelines.

Extends the §VI-D robustness methodology (Figs. 5–7: closed-loop clients,
warm-up, fault mid-window, per-second settled series) from benign faults
to the attack library of :mod:`repro.adversary`: one timeline per
(system × attack) cell at the paper's f = ⌊(N−1)/3⌋ adversary bound, with
an :class:`~repro.adversary.InvariantMonitor` sampling the correct
replicas throughout.  Results — per-second throughput curves plus monitor
verdicts — land in ``BENCH_byzantine.json``.

``REPRO_ADVERSARY_ATTACKS`` is a comma-separated attack filter (default:
every attack applicable to the system).

Cells are independent :class:`~repro.bench.parallel.ScenarioJob`s
running :func:`run_adversary_cell`, so ``REPRO_BENCH_JOBS`` parallelizes
the suite like every other sweep.  This is the only bench module that
imports the adversary subsystem; benign sweeps never load it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..adversary import ATTACKS, InvariantMonitor, install_adversary
from .jobs import _build_timeline_system
from .parallel import ScenarioJob, derive_seed, execute
from .scale import BenchScale, current_scale
from .systems import validate_systems
from .timeline import run_timeline

__all__ = [
    "ByzantineRobustnessResult",
    "applicable_attacks",
    "run_adversary_cell",
    "run_byzantine_robustness",
]

#: Closed-loop clients per cell, as in the benign robustness suites.
NUM_CLIENTS = 10

#: Systems with Byzantine support (the consensus baseline's adversary
#: model is out of scope — Astro is the claim under test).
ADVERSARY_SYSTEMS = ("astro1", "astro2")


def applicable_attacks(system: str, attacks: Optional[Sequence[str]] = None) -> List[str]:
    """Attack names applicable to ``system``, optionally filtered.

    Unknown names in ``attacks`` raise (a misspelled
    ``REPRO_ADVERSARY_ATTACKS`` must not silently run nothing).
    """
    if attacks is not None:
        unknown = [name for name in attacks if name not in ATTACKS]
        if unknown:
            raise ValueError(
                f"unknown attack(s) {unknown!r}: known attacks are "
                f"{sorted(ATTACKS)}"
            )
    selected = list(attacks) if attacks is not None else list(ATTACKS)
    return [name for name in selected if system in ATTACKS[name].systems]


def run_adversary_cell(
    seed: int,
    system: str,
    size: int,
    attack: str,
    num_clients: int = NUM_CLIENTS,
    warmup: float = 4.0,
    window: float = 16.0,
    attack_offset: float = 4.0,
    monitor_interval: float = 1.0,
    adversary_count: Optional[int] = None,
) -> Dict[str, Any]:
    """One (system × attack) timeline with live invariant monitoring.

    The attack arms ``attack_offset`` seconds into the observation
    window; the monitor samples every ``monitor_interval`` simulated
    seconds from t=0 through the end of the window, plus one final
    post-run sample.  Returns a picklable, JSON-ready dict.
    """
    built = _build_timeline_system(system, None, size, seed)
    end = warmup + window
    attack_at = warmup + attack_offset
    adversary = install_adversary(
        built,
        {"attack": attack, "at": attack_at, "count": adversary_count},
        seed=seed,
    )
    monitor = InvariantMonitor.watch(
        built,
        interval=monitor_interval,
        byzantine_ids=adversary.byzantine_ids,
        until=end,
    )
    result = run_timeline(
        built,
        num_clients=num_clients,
        warmup=warmup,
        window=window,
        seed=seed,
        split=attack_offset,  # the adversary *is* the fault
    )
    monitor.stop()
    monitor.sample_replicas()  # final state, after the window closed
    return {
        "system": system,
        "attack": attack,
        "size": size,
        "byzantine": list(adversary.byzantine_ids),
        "attack_at": attack_at,
        "window_start": result.window_start,
        "series": list(result.series),
        "completed": result.completed,
        "before_pps": result.before_fault(),
        "after_pps": result.after_fault(),
        "min_pps": result.min_after_fault(),
        "tampered": adversary.tampered,
        "verdict": monitor.verdict(),
    }


@dataclass
class ByzantineRobustnessResult:
    """All (system × attack) cells of one suite run."""

    size: int
    warmup: float
    window: float
    attack_offset: float
    #: The attack filter the run resolved (``None``: every applicable one).
    attacks: Optional[Sequence[str]] = None
    cells: Dict[Tuple[str, str], Dict[str, Any]] = field(default_factory=dict)

    @property
    def all_safe(self) -> bool:
        return all(cell["verdict"]["ok"] for cell in self.cells.values())

    def table(self) -> str:
        """Human-readable summary, one row per cell."""
        lines = [
            f"Byzantine robustness: N={self.size}, f adversaries, "
            f"attack at +{self.attack_offset:.0f}s of a "
            f"{self.window:.0f}s window",
            f"{'system':<8} {'attack':<14} {'before':>9} {'after':>9} "
            f"{'tampered':>9} {'samples':>8} verdict",
        ]
        for (system, attack), cell in sorted(self.cells.items()):
            verdict = cell["verdict"]
            status = "SAFE" if verdict["ok"] else (
                f"VIOLATED@{verdict['first_violation']:.1f}s"
            )
            lines.append(
                f"{system:<8} {attack:<14} {cell['before_pps']:>7.1f}/s "
                f"{cell['after_pps']:>7.1f}/s {cell['tampered']:>9} "
                f"{verdict['samples']:>8} {status}"
            )
        return "\n".join(lines)

    def report(self) -> Dict[str, Any]:
        """JSON-ready document for ``BENCH_byzantine.json``."""
        return {
            "size": self.size,
            "warmup": self.warmup,
            "window": self.window,
            "attack_offset": self.attack_offset,
            "all_safe": self.all_safe,
            "cells": [
                dict(cell) for _, cell in sorted(self.cells.items())
            ],
        }


def run_byzantine_robustness(
    scale: Optional[BenchScale] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
    systems: Sequence[str] = ADVERSARY_SYSTEMS,
    attacks: Optional[Sequence[str]] = None,
    size: Optional[int] = None,
    warmup: Optional[float] = None,
    window: Optional[float] = None,
    monitor_interval: float = 1.0,
    adversary_count: Optional[int] = None,
) -> ByzantineRobustnessResult:
    """Run one timeline per (system × attack) cell, in parallel.

    Defaults come from the bench scale (the Figs. 5/6 small-N shape);
    ``attacks=None`` reads the ``REPRO_ADVERSARY_ATTACKS`` filter and
    ``adversary_count=None`` means the paper's ``f``.
    """
    if scale is None:
        scale = current_scale()
    names = validate_systems(systems)
    unsupported = [n for n in names if n not in ADVERSARY_SYSTEMS]
    if unsupported:
        raise ValueError(
            f"adversary suite supports {ADVERSARY_SYSTEMS}, got "
            f"{unsupported!r}"
        )
    if attacks is None:
        raw = os.environ.get("REPRO_ADVERSARY_ATTACKS")
        if raw:
            attacks = [name.strip() for name in raw.split(",") if name.strip()]
    if size is None:
        size = scale.robustness_small_n
    if warmup is None:
        warmup = scale.robustness_warmup
    if window is None:
        window = scale.robustness_window
    attack_offset = window / 4.0
    units: List[ScenarioJob] = []
    for system in names:
        for attack in applicable_attacks(system, attacks):
            units.append(
                ScenarioJob(
                    fn=run_adversary_cell,
                    params=dict(
                        system=system,
                        size=size,
                        attack=attack,
                        num_clients=NUM_CLIENTS,
                        warmup=warmup,
                        window=window,
                        attack_offset=attack_offset,
                        monitor_interval=monitor_interval,
                        adversary_count=adversary_count,
                    ),
                    seed=derive_seed(seed, "byzantine", system, attack),
                    tag=(system, attack),
                )
            )
    results = execute(units, jobs=jobs, label="byzantine")
    suite = ByzantineRobustnessResult(
        size=size, warmup=warmup, window=window,
        attack_offset=attack_offset, attacks=attacks,
    )
    for unit, cell in zip(units, results):
        suite.cells[unit.tag] = cell
    return suite

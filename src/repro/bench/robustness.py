"""Figs. 5–7 — performance robustness under crash-stop and asynchrony.

Reproduces §VI-D: 10 single-threaded closed-loop clients drive each
system below saturation; after a warm-up, a fault hits one replica:

* **Fig. 5** (crash, N=49): crashing the consensus *leader* zeroes
  throughput until the view change completes; crashing a random replica
  only dips briefly; crashing a random Astro replica costs exactly the
  share of clients it represented.
* **Fig. 6** (100 ms egress delay, N=49): a slowed consensus leader either
  limps along at degraded throughput (timeline A, long timeout) or is
  deposed by a view change (timeline B, short timeout); a slowed random
  replica causes a brief quorum switch; a slowed Astro replica only slows
  its own clients.
* **Fig. 7** repeats both faults at N=100, where the view change takes
  far longer.

Scaled-down sizes are used by default (the paper itself notes "similar
observations emerge" at other sizes); ``REPRO_BENCH_SCALE=full`` restores
N=49/100.

Execution model: every timeline (one curve of one figure) is an
independent ``timeline`` job — system builder and config variant are
named in the picklable descriptor (resolved in the worker by
:mod:`repro.bench.jobs`), the fault is spelled there as a
:mod:`repro.transport.chaos` timeline string — so a figure's curves run
concurrently on the parallel backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .jobs import exec_timeline
from .parallel import ScenarioJob, execute
from .report import format_series, format_table
from .scale import BenchScale, current_scale
from .timeline import TimelineResult

__all__ = [
    "RobustnessResult",
    "run_robustness_suite",
]

#: Clients in every robustness run (§VI-D).
NUM_CLIENTS = 10

#: The paper's asynchrony injection: 100 ms on all outgoing packets.
ASYNC_DELAY = 0.100


@dataclass
class RobustnessResult:
    """Named per-second throughput timelines (one per curve in the figure)."""

    title: str
    size: int
    timelines: Dict[str, TimelineResult]

    def table(self) -> str:
        headers = ["timeline", "before (pps)", "after (pps)", "min after (pps)"]
        rows = []
        for name, timeline in self.timelines.items():
            rows.append([
                name,
                f"{timeline.before_fault():.0f}",
                f"{timeline.after_fault():.0f}",
                f"{timeline.min_after_fault():.0f}",
            ])
        return format_table(headers, rows, title=self.title)

    def series_dump(self) -> str:
        lines = []
        for name, timeline in self.timelines.items():
            lines.append(f"{name}: {format_series(timeline.series)}")
        return "\n".join(lines)


#: (curve name, system, config variant, fault) per figure.  The fault is
#: a :mod:`repro.transport.chaos` timeline with the scale-dependent parts
#: left open: ``{leader}`` is replica 0, ``{random}`` a non-leader replica
#: representing exactly one active client (the paper: crashing a random
#: Astro replica costs the throughput share of the clients it
#: represented, ~1 of 10), ``{at}`` the window's first quarter.
_Scenario = Tuple[str, str, Optional[str], str]

_FIG5_SCENARIOS: List[_Scenario] = [
    ("Consensus-Leader", "bft", None, "crash:{leader}@{at}"),
    ("Consensus-Random", "bft", None, "crash:{random}@{at}"),
    ("Broadcast-Random", "astro1", None, "crash:{random}@{at}"),
]

# Fig. 6: ``Consensus-Leader-A`` keeps a long request timeout, so the
# slowed leader stays (degraded steady state); ``Consensus-Leader-B``
# uses an aggressive timeout, so a view change deposes the leader and
# throughput recovers — the trade-off the paper discusses.
_FIG6_SCENARIOS: List[_Scenario] = [
    ("Consensus-Leader-A", "bft", "patient", "delay:{leader}x{delay}@{at}"),
    ("Consensus-Leader-B", "bft", "aggressive", "delay:{leader}x{delay}@{at}"),
    ("Consensus-Random", "bft", None, "delay:{random}x{delay}@{at}"),
    ("Broadcast-Random", "astro1", None, "delay:{random}x{delay}@{at}"),
]

_FIG7_SCENARIOS: List[_Scenario] = [
    ("Consensus-Fail", "bft", None, "crash:{leader}@{at}"),
    ("Consensus-Async", "bft", None, "delay:{leader}x{delay}@{at}"),
    ("Broadcast-Fail", "astro1", None, "crash:{random}@{at}"),
    ("Broadcast-Async", "astro1", None, "delay:{random}x{delay}@{at}"),
]


def _enumerate_scenarios(
    scenarios: List[_Scenario],
    size: int,
    scale: BenchScale,
    seed: int,
) -> List[ScenarioJob]:
    """One independent ``timeline`` job per fault curve of one figure."""
    return [
        ScenarioJob(
            fn=exec_timeline,
            params=dict(
                system=system,
                size=size,
                variant=variant,
                timeline=fault.format(
                    leader=0, random=min(NUM_CLIENTS, size) - 1,
                    delay=ASYNC_DELAY, at=scale.robustness_window / 4,
                ),
                num_clients=NUM_CLIENTS,
                warmup=scale.robustness_warmup,
                window=scale.robustness_window,
            ),
            seed=seed,
            tag=name,
        )
        for name, system, variant, fault in scenarios
    ]


def _assemble(
    units: List[ScenarioJob], results: List[TimelineResult],
    title: str, size: int,
) -> RobustnessResult:
    timelines = {unit.tag: result for unit, result in zip(units, results)}
    return RobustnessResult(title=title, size=size, timelines=timelines)


def run_robustness_suite(
    scale: Optional[BenchScale] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> Tuple[RobustnessResult, RobustnessResult, RobustnessResult]:
    """Figs. 5–7 as one pooled schedule: every fault timeline of every
    figure is an independent job in a single :func:`execute` call.

    Run figure-by-figure, each figure is a small barrier gated on its
    slowest member — and Fig. 7's large-N view-change timelines dominate
    a 4-job sweep while the other workers idle.  Pooling all 11 timelines
    lets Figs. 5/6's cheaper cells fill the idle workers alongside the
    dominant N=100 cells, so the suite's wall-clock approaches the single
    slowest timeline instead of the sum of three stragglers.

    Each cell's result is a pure function of its descriptor and seed;
    pooling changes scheduling only.
    """
    if scale is None:
        scale = current_scale()
    small, large = scale.robustness_small_n, scale.robustness_large_n
    figures = [
        (_FIG5_SCENARIOS, f"Fig. 5 — throughput under crash-stop (N={small})", small),
        (_FIG6_SCENARIOS, f"Fig. 6 — throughput under asynchrony (N={small})", small),
        (_FIG7_SCENARIOS, f"Fig. 7 — robustness at large scale (N={large})", large),
    ]
    per_figure_units = [
        _enumerate_scenarios(scenarios, size, scale, seed)
        for scenarios, _title, size in figures
    ]
    units = [unit for figure_units in per_figure_units for unit in figure_units]
    results = execute(
        units, jobs=jobs, label=f"robustness-suite[{scale.name}]"
    )
    assembled = []
    cursor = 0
    for (scenarios, title, size), figure_units in zip(figures, per_figure_units):
        figure_results = results[cursor:cursor + len(figure_units)]
        cursor += len(figure_units)
        assembled.append(_assemble(figure_units, figure_results, title, size))
    return tuple(assembled)

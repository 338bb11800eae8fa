"""Benchmark harness: per-figure/table experiment definitions.

Each experiment module reproduces one element of the paper's evaluation
(``fig3``, ``fig4``, ``robustness`` for Figs. 5–7, ``fig8``, ``table1``,
``ablations``, ``adversary``; ``benchmarks/`` holds one test per figure
or table) and prints the same rows/series the paper reports.  ``repro.bench.scale`` controls problem sizes
(``REPRO_BENCH_SCALE`` ∈ smoke/quick/full); ``repro.bench.parallel``
fans the independent cells of each sweep across a process pool
(``REPRO_BENCH_JOBS``, default serial) with deterministic, submission-
order results.
"""

from .ablations import (
    BatchingAblation,
    MessageComplexityAblation,
    run_batching_ablation,
    run_message_complexity_ablation,
)
from .fig3 import Fig3Result, run_fig3
from .fig4 import Fig4Result, run_fig4
from .fig8 import Fig8Result, measure_astro_join_series, run_fig8
from .parallel import (
    ScenarioJob,
    SweepTiming,
    derive_seed,
    execute,
    resolve_jobs,
    reset_sweep_log,
    sweep_report,
)
from .peak import PeakResult, find_peak
from .report import format_series, format_table, kilo, print_table
from .robustness import (
    RobustnessResult,
)
from .runner import RunResult, run_open_loop
from .scale import BenchScale, current_scale
from .systems import build_astro1, build_astro2, build_bft, client_ids_of
from .table1 import Table1Result, Table1Row, run_table1
from .timeline import TimelineResult, run_timeline

__all__ = [
    "BatchingAblation",
    "MessageComplexityAblation",
    "run_batching_ablation",
    "run_message_complexity_ablation",
    "Fig3Result",
    "run_fig3",
    "Fig4Result",
    "run_fig4",
    "Fig8Result",
    "measure_astro_join_series",
    "run_fig8",
    "ScenarioJob",
    "SweepTiming",
    "derive_seed",
    "execute",
    "resolve_jobs",
    "reset_sweep_log",
    "sweep_report",
    "PeakResult",
    "find_peak",
    "format_series",
    "format_table",
    "kilo",
    "print_table",
    "RobustnessResult",
    "RunResult",
    "run_open_loop",
    "BenchScale",
    "current_scale",
    "build_astro1",
    "build_astro2",
    "build_bft",
    "client_ids_of",
    "Table1Result",
    "Table1Row",
    "run_table1",
    "TimelineResult",
    "run_timeline",
]

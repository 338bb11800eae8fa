"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one table or figure of the paper; its module
name says which, and it calls the matching ``repro.bench`` runner.  ``REPRO_BENCH_SCALE`` ∈ {smoke, quick,
full} controls problem sizes; the default (quick) finishes on a laptop.
``REPRO_BENCH_JOBS`` selects the sweep execution backend (serial by
default; an integer > 1 fans independent scenario jobs across a process
pool with byte-identical results).

Benchmarks print the reproduced rows/series to stdout — run with ``-s``
(or read the captured output) to see the paper-style tables.

At session end the per-sweep wall-clock log collected by
``repro.bench.parallel`` is written to ``BENCH_sweeps.json`` and, when
``BENCH_perf.json`` exists, merged into it under ``"sweeps"`` — the harness's own speed is part of the
tracked perf trajectory.
"""

import gc
import json
import os
import time

import pytest

from repro.bench.parallel import resolve_jobs, sweep_report
from repro.bench.report import PERF_JSON
from repro.bench.scale import current_scale

_session_started_at = 0.0


@pytest.fixture(autouse=True)
def _collect_between_benchmarks():
    """Scenario boundary (see "Collector policy" in ``repro.sim.events``).

    Benchmarks that build systems outside ``repro.bench.parallel.execute``
    leave them behind as cyclic garbage; the next benchmark must not time
    its engine — or fork pool workers — on top of that heap.
    """
    yield
    gc.collect()


@pytest.fixture(scope="session")
def scale():
    active = current_scale()
    print(f"\n[repro] benchmark scale: {active.name}, "
          f"jobs: {resolve_jobs()}")
    return active


@pytest.fixture(scope="session")
def robustness_suite(scale):
    """Figs. 5–7 measured through the pooled suite scheduler.

    One ``run_robustness_suite`` call serves all three figure tests: the
    11 fault timelines run as a single job pool (the dominant large-N
    cells overlap the cheap ones instead of each figure waiting on its
    slowest member), and the per-figure results are byte-identical to
    the individual entry points — same descriptors, same per-cell seeds.
    """
    from repro.bench.robustness import run_robustness_suite

    return run_robustness_suite(scale=scale)


def pytest_sessionstart(session):
    global _session_started_at
    _session_started_at = time.time()


def pytest_sessionfinish(session, exitstatus):
    sweeps = sweep_report()
    if not sweeps:
        return
    report = {
        "bench_scale": current_scale().name,
        "jobs": resolve_jobs(),
        "total_sweep_seconds": round(sum(s["seconds"] for s in sweeps), 3),
        "sweeps": sweeps,
    }
    with open("BENCH_sweeps.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    try:
        # Merge only into a perf report written by *this* session: a stale
        # BENCH_perf.json from an earlier run (the perf test may have been
        # deselected) must not be paired with today's sweep timings.
        if os.path.getmtime(PERF_JSON) < _session_started_at:
            return
        with open(PERF_JSON) as fh:
            perf = json.load(fh)
    except (OSError, ValueError):
        return
    perf["sweeps"] = report
    with open(PERF_JSON, "w") as fh:
        json.dump(perf, fh, indent=2)
        fh.write("\n")

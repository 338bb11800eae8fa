"""Scenario-level parallel execution for benchmark sweeps.

The paper's evaluation is a grid of *independent* simulations — Fig. 3
alone sweeps N=4..100 across three systems — yet a CPython event loop can
only run one simulation per process.  This module turns each benchmark
from "inline loop that builds systems and measures" into three phases:

1. **enumerate** — the figure module describes every cell of its sweep as
   a picklable :class:`ScenarioJob` (a module-level function plus its
   keyword arguments);
2. **execute** — :func:`execute` runs the descriptors on a backend:
   in-process serial (the default, byte-for-byte identical to the old
   inline loops) or a ``multiprocessing`` pool selected with the
   ``REPRO_BENCH_JOBS`` environment variable / ``jobs=`` argument;
3. **assemble** — results come back in submission order (never in
   completion order), so the figure module rebuilds its tables exactly as
   before.

Only descriptors cross the process boundary on the way in, and only
small result dataclasses (:class:`~repro.bench.runner.RunResult`,
:class:`~repro.bench.peak.PeakResult`, plain tuples/floats) on the way
out — workers rebuild simulators locally from the descriptor.

Determinism is load-bearing (see README "Determinism"): every job carries
its own explicit seed, fixed at *enumeration* time.  Jobs that need
independent entropy derive it with :func:`derive_seed`, a pure function
of ``(root seed, job key)`` — never from a shared RNG consumed in
execution order — so results are identical regardless of worker count,
scheduling, or completion order.  The figure enumerators pin the caller's
seed on every cell (the paper's methodology measures each cell under the
same conditions), which also keeps the serial backend's output identical
to the pre-refactor inline loops.

Every :func:`execute` call with a ``label`` records its wall-clock
seconds, and each cell's as timed inside its worker, into a
process-global sweep log (:func:`sweep_report`); the benchmark suite
writes the log next to ``BENCH_perf.json`` so the harness's own speed is
part of the tracked perf trajectory.  That is all the harness knows
about its host: the worker count is used as given (``auto`` is
:func:`usable_cpus`), and no cell carries an expected cost — engine
speed is judged by ``perfbench``, against the parent, on every PR.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ScenarioJob",
    "SweepTiming",
    "derive_seed",
    "execute",
    "reset_sweep_log",
    "resolve_jobs",
    "run_unit",
    "sweep_report",
    "usable_cpus",
]

#: Environment variable selecting the backend: unset/"1" = serial (the
#: default), an integer > 1 = process pool of that many workers,
#: "auto"/"0" = one worker per available CPU.
JOBS_ENV = "REPRO_BENCH_JOBS"


# ---------------------------------------------------------------------------
# Job descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioJob:
    """One independent simulation, described by picklable values only.

    ``fn`` is a module-level function (the standard ones live in
    :mod:`repro.bench.jobs`; figure modules also name their own) called
    as ``fn(seed=seed, **params)`` — pickled by reference, so a worker
    imports its module on arrival under ``fork`` and ``spawn`` alike;
    ``seed`` is the job's explicit entropy, fixed at enumeration time;
    ``tag`` is an opaque label the enumerator uses to reassemble results
    (it is returned untouched, never interpreted).
    """

    fn: Callable[..., Any]
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    tag: Any = None


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------


def derive_seed(root_seed: int, *key: Any) -> int:
    """Spawn an independent per-job seed from ``(root_seed, key)``.

    A pure hash of the job's stable identity — **not** a draw from a
    shared RNG stream — so the value depends only on the key, never on
    how many jobs were enumerated before it, which worker runs it, or
    the order results come back.  Use one structural key per job (e.g.
    ``derive_seed(seed, "fig3", system, size)``).
    """
    material = repr((int(root_seed),) + tuple(key)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def run_unit(job: ScenarioJob) -> Any:
    """Execute one job in this process and return its function's result.

    This is the worker entry point for the process-pool backend and the
    whole story for the serial backend.
    """
    result = job.fn(seed=job.seed, **job.params)
    # Scenario boundary: the job's system is cyclic garbage; reclaim it
    # before the next job builds its own (repro.sim.events, "Collector
    # policy").
    gc.collect()
    return result


def usable_cpus() -> int:
    """CPUs actually available to this process.

    Respects CPU affinity masks / cgroup cpusets where the platform
    exposes them (``auto`` in a container pinned to 4 of 64 host cores
    must mean 4, not 64).
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``REPRO_BENCH_JOBS``, else 1.

    ``auto``/``0`` is :func:`usable_cpus`; every count is used verbatim.
    """
    if jobs is not None:
        if jobs < 1:
            raise ValueError(f"worker count must be >= 1, got {jobs}")
        return jobs
    raw = os.environ.get(JOBS_ENV, "1").strip().lower()
    if raw in ("", "1"):
        return 1
    if raw in ("0", "auto"):
        return usable_cpus()
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(
            f"{JOBS_ENV} must be a positive integer, 0, or 'auto'; got {raw!r}"
        ) from None
    if count < 1:
        raise ValueError(f"{JOBS_ENV} must be >= 1, got {count}")
    return count


@dataclass(frozen=True)
class SweepTiming:
    """Wall-clock record of one labelled :func:`execute` call."""

    label: str
    seconds: float
    units: int
    jobs: int
    backend: str
    #: Per-unit wall-clock breakdown: ``[{"tag": ..., "seconds": ...}]``
    #: in submission order, measured inside the worker — the cell-level
    #: skew record a sweep needs to diagnose straggler cells.
    cells: Optional[List[Dict[str, Any]]] = None


def _cell_entry(job: ScenarioJob, seconds: float) -> Dict[str, Any]:
    """One sweep-log cell record.  Tags are opaque, so anything beyond
    JSON primitives is rendered via repr."""
    tag = job.tag
    if not (isinstance(tag, (str, int, float, bool)) or tag is None):
        tag = repr(tag)
    return {"tag": tag, "seconds": round(seconds, 4)}


def _run_unit_timed(job: ScenarioJob) -> Tuple[Any, float]:
    """Worker entry point recording the job's own wall-clock seconds."""
    start = time.perf_counter()
    result = run_unit(job)
    return result, time.perf_counter() - start


#: Process-global sweep log (parent process only; workers never append).
_SWEEP_LOG: List[SweepTiming] = []


def sweep_report() -> List[Dict[str, Any]]:
    """The sweep log as JSON-ready dicts, in execution order."""
    return [dataclasses.asdict(timing) for timing in _SWEEP_LOG]


def reset_sweep_log() -> None:
    _SWEEP_LOG.clear()


def execute(
    units: Sequence[ScenarioJob],
    jobs: Optional[int] = None,
    label: Optional[str] = None,
) -> List[Any]:
    """Run jobs on the selected backend; results in submission order.

    ``jobs=None`` reads ``REPRO_BENCH_JOBS`` (default: 1 = serial, the
    pre-refactor behavior).  With ``jobs > 1`` the units run on a
    ``multiprocessing`` pool; ``pool.map`` reassembles results by
    submission index, so completion order never shows through.  A
    ``label`` records the sweep's wall-clock seconds — including a
    per-unit breakdown timed inside the workers — in the process-global
    log (:func:`sweep_report`).

    Raises ``ValueError`` for a job whose ``fn`` a worker could not
    import by name (a lambda, a closure) — on every backend, so the
    mistake does not pass serially and fail only under a pool.
    """
    units = list(units)
    for unit in units:
        try:
            pickle.dumps(unit.fn)
        except (pickle.PicklingError, AttributeError) as exc:
            raise ValueError(
                f"job {unit.tag!r}: fn must be importable by module and "
                f"qualified name ({exc})"
            ) from None
    workers = min(resolve_jobs(jobs), max(len(units), 1))
    start = time.perf_counter()
    if workers <= 1:
        backend = "serial"
        timed = [_run_unit_timed(unit) for unit in units]
    else:
        # The platform default: fork on Linux, spawn on macOS/Windows —
        # identical results, since unpickling a job imports its fn.
        context = multiprocessing.get_context()
        backend = f"process-pool({workers}, {context.get_start_method()})"
        with context.Pool(processes=workers) as pool:
            timed = pool.map(_run_unit_timed, units, chunksize=1)
    results = [result for result, _seconds in timed]
    if label is not None:
        _SWEEP_LOG.append(
            SweepTiming(
                label=label,
                seconds=time.perf_counter() - start,
                units=len(units),
                jobs=workers,
                backend=backend,
                cells=[
                    _cell_entry(unit, seconds)
                    for unit, (_result, seconds) in zip(units, timed)
                ],
            )
        )
    return results

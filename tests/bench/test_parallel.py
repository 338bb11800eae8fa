"""Tests for the scenario-level parallel execution subsystem."""

import functools
import inspect

import pytest

from repro.bench import jobs
from repro.bench.fig3 import Fig3Result
from repro.bench.parallel import (
    ScenarioJob,
    derive_seed,
    execute,
    resolve_jobs,
    run_unit,
    sweep_report,
)
from repro.bench.peak import find_peak
from repro.bench.systems import build_astro2


def _echo(seed, value):
    return seed, value


def _tiny_job(system: str, rate: float = 400.0, seed: int = 0) -> ScenarioJob:
    return ScenarioJob(
        fn=jobs.exec_open_loop_messages,
        params=dict(system=system, size=4, rate=rate, duration=0.4, warmup=0.3),
        seed=seed,
        tag=system,
    )


class TestSeedDerivation:
    def test_same_key_same_seed(self):
        assert derive_seed(7, "fig3", "astro2", 4) == derive_seed(7, "fig3", "astro2", 4)

    def test_distinct_keys_distinct_seeds(self):
        keys = [("fig3", name, size) for name in ("bft", "astro1", "astro2")
                for size in (4, 10, 22)]
        seeds = {derive_seed(0, *key) for key in keys}
        assert len(seeds) == len(keys)

    def test_root_seed_separates_streams(self):
        assert derive_seed(0, "x") != derive_seed(1, "x")

    def test_independent_of_submission_order(self):
        """The satellite guarantee: a job's seed is a pure function of its
        identity key — enumerating or submitting jobs in any other order
        must produce the same per-job seed."""
        keys = [("cell", name, size) for name in ("bft", "astro1", "astro2")
                for size in (4, 7, 10, 22)]
        forward = {key: derive_seed(3, *key) for key in keys}
        backward = {key: derive_seed(3, *key) for key in reversed(keys)}
        shuffled = {key: derive_seed(3, *key)
                    for key in sorted(keys, key=lambda k: repr(k)[::-1])}
        assert forward == backward == shuffled


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "4")
        assert resolve_jobs() == 4

    def test_env_auto(self, monkeypatch):
        """``auto`` is the usable core count and nothing else: no file
        about the host is opened on the way, through ``execute`` too."""
        from repro.bench.parallel import usable_cpus

        def no_open(*args, **kwargs):
            raise AssertionError(f"auto opened {args[0]!r}")

        monkeypatch.setattr("builtins.open", no_open)
        monkeypatch.setenv("REPRO_BENCH_JOBS", "auto")
        assert resolve_jobs() == usable_cpus()
        monkeypatch.setenv("REPRO_BENCH_JOBS", "0")
        assert resolve_jobs() == usable_cpus()
        # One unit keeps the run in this process, under the patched open.
        job = ScenarioJob(fn=_echo, params=dict(value="v"), seed=1)
        assert execute([job], label="auto-sweep") == [(1, "v")]
        assert sweep_report()[-1]["jobs"] == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "8")
        assert resolve_jobs(2) == 2

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs()
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestExecute:
    def test_signature_is_units_jobs_label(self):
        """A pool and a log: nothing about the host or the cells' expected
        cost is an input."""
        assert list(inspect.signature(execute).parameters) == [
            "units", "jobs", "label",
        ]

    def test_run_unit_passes_seed_and_params(self):
        job = ScenarioJob(fn=_echo, params=dict(value="v"), seed=9)
        assert run_unit(job) == (9, "v")

    def test_refuses_fn_a_worker_could_not_import(self):
        """A closure or lambda would run fine serially and fail only
        under REPRO_BENCH_JOBS=2; refuse it on every backend."""

        def closure(seed, value):
            return value

        for fn in (closure, lambda seed, value: value):
            with pytest.raises(ValueError, match="importable"):
                execute(
                    [ScenarioJob(fn=fn, params=dict(value=1), tag="cell")],
                    jobs=1,
                )
        # Module-level functions and partials of them are fine.
        assert execute(
            [
                ScenarioJob(fn=_echo, params=dict(value=1), seed=2),
                ScenarioJob(fn=functools.partial(_echo, value=3), seed=4),
            ],
            jobs=1,
        ) == [(2, 1), (4, 3)]

    def test_results_in_submission_order(self):
        units = [_tiny_job("astro1"), _tiny_job("astro2")]
        forward = execute(units, jobs=1)
        backward = execute(list(reversed(units)), jobs=1)
        assert [r.offered for r, _sent in forward] == [
            r.offered for r, _sent in reversed(backward)
        ]
        # Astro I's O(N^2) BRB sends more wire messages than Astro II's.
        assert forward[0][1] > forward[1][1]

    def test_parallel_matches_serial(self):
        units = [_tiny_job("astro1"), _tiny_job("astro2")]
        serial = execute(units, jobs=1)
        parallel = execute(units, jobs=2)
        assert [(repr(r), sent) for r, sent in serial] == [
            (repr(r), sent) for r, sent in parallel
        ]
        assert [(r.achieved, r.injected, r.confirmed) for r, _ in serial] == [
            (r.achieved, r.injected, r.confirmed) for r, _ in parallel
        ]

    def test_sweep_timing_recorded(self):
        before = len(sweep_report())
        execute([_tiny_job("astro2")], jobs=1, label="test-sweep")
        report = sweep_report()
        assert len(report) == before + 1
        entry = report[-1]
        assert entry["label"] == "test-sweep"
        assert entry["units"] == 1
        assert entry["backend"] == "serial"
        assert entry["seconds"] > 0
        (cell,) = entry["cells"]
        assert sorted(cell) == ["seconds", "tag"]
        assert cell["tag"] == "astro2" and cell["seconds"] > 0

    def test_unlabelled_sweeps_not_recorded(self):
        before = len(sweep_report())
        execute([_tiny_job("astro2")], jobs=1)
        assert len(sweep_report()) == before


class TestFig3ResultTable:
    def test_table_with_subset_of_systems(self):
        # Regression: table() used to KeyError on results measured for a
        # subset of the three systems (run_fig3(systems=...)).
        result = Fig3Result(sizes=[4, 10], peaks={"astro2": [100.0, 90.0]})
        table = result.table()
        assert "Astro II" in table
        assert "BFT" not in table

    def test_table_with_all_systems(self):
        result = Fig3Result(
            sizes=[4],
            peaks={"bft": [1.0], "astro1": [2.0], "astro2": [3.0]},
        )
        lines = result.table().splitlines()
        assert "Consensus" in lines[1]
        assert "Astro I" in lines[1] and "Astro II" in lines[1]


class TestFindPeakGuards:
    def test_zero_probe_budget_raises(self):
        factory = functools.partial(build_astro2, 4, seed=3)
        with pytest.raises(ValueError, match="no probes"):
            find_peak(factory, start_rate=2000, max_probes=0)

    def test_single_probe_history_skips_backtrack(self):
        # max_doublings=0 forces the walk-down path; its first (and only)
        # probe passes, leaving a one-element history that used to crash
        # the ``probes[-2]`` backtrack.
        factory = functools.partial(build_astro2, 4, seed=3)
        result = find_peak(
            factory, start_rate=800.0, duration=0.4, warmup=0.3,
            max_doublings=0, refine_steps=2, payment_budget=4000,
        )
        assert len(result.probes) == 1
        assert result.peak_pps > 0

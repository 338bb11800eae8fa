"""Unit tests for the Fig. 3 wall-clock budget machinery
(repro.bench.budget) and its sweep-log wiring (parallel.execute's
``budgets=`` argument)."""

import json

import pytest

from repro.bench import budget
from repro.bench.budget import (
    check_report,
    fig3_anchor_budget_seconds,
    fig3_budgets,
    fig3_cell_budget_seconds,
    host_events_per_second,
    main,
)
from repro.bench.parallel import (
    ScenarioJob,
    execute,
    reset_sweep_log,
    sweep_report,
)
from repro.bench.scale import _SCALES


@pytest.fixture(autouse=True)
def _pinned_eps(monkeypatch):
    """Pin the calibration so budget values are deterministic."""
    monkeypatch.setattr(
        host_events_per_second, "_cached", budget._REFERENCE_EPS, raising=False
    )
    monkeypatch.delenv(budget.FACTOR_ENV, raising=False)


# ---------------------------------------------------------------------------
# Calibration + model
# ---------------------------------------------------------------------------


def test_eps_measured_and_memoized(monkeypatch):
    monkeypatch.delattr(host_events_per_second, "_cached", raising=False)
    first = host_events_per_second(sample_events=20_000)
    assert first > 0
    assert host_events_per_second() == first  # cached, not re-measured


def test_budgets_floor_and_growth():
    scale = _SCALES["quick"]
    for system in ("bft", "astro1", "astro2"):
        small = fig3_cell_budget_seconds(system, 4, scale)
        large = fig3_cell_budget_seconds(system, 100, scale)
        assert small >= budget.MIN_BUDGET_SECONDS
        # Quadratic (astro1/bft) or linear (astro2) per-batch event terms
        # must make large cells cost visibly more than small ones.
        assert large > small
    with pytest.raises(ValueError):
        fig3_cell_budget_seconds("zebra", 4, scale)


def test_anchor_budget_cheaper_than_cell():
    scale = _SCALES["full"]
    for system in ("bft", "astro1", "astro2"):
        assert fig3_anchor_budget_seconds(system, 100, scale) < (
            fig3_cell_budget_seconds(system, 100, scale)
        )


def test_budget_factor_scales(monkeypatch):
    scale = _SCALES["full"]
    base = fig3_cell_budget_seconds("astro2", 100, scale)
    monkeypatch.setenv(budget.FACTOR_ENV, "2.5")
    assert fig3_cell_budget_seconds("astro2", 100, scale) == (
        pytest.approx(2.5 * base)
    )
    monkeypatch.setenv(budget.FACTOR_ENV, "0")
    with pytest.raises(ValueError):
        fig3_cell_budget_seconds("astro2", 100, scale)


def test_fig3_budgets_covers_every_cell():
    scale = _SCALES["full"]
    sizes = scale.fig3_sizes
    systems = ("bft", "astro1", "astro2")
    budgets = fig3_budgets(sizes, systems, scale)
    assert set(budgets) == {(s, n) for s in systems for n in sizes}
    assert all(value >= budget.MIN_BUDGET_SECONDS for value in budgets.values())


# ---------------------------------------------------------------------------
# Sweep-log wiring
# ---------------------------------------------------------------------------


def _noop_job(seed=0, **params):
    return params.get("value")


def test_execute_records_budget_seconds():
    reset_sweep_log()
    try:
        units = [
            ScenarioJob(fn=_noop_job, params=dict(value=index),
                        tag=("astro2", index))
            for index in (4, 10)
        ]
        results = execute(
            units, jobs=1, label="budget-test",
            budgets={("astro2", 4): 12.5},
        )
        assert results == [4, 10]
        cells = sweep_report()[-1]["cells"]
        assert cells[0]["budget_seconds"] == 12.5
        assert "budget_seconds" not in cells[1]  # no budget declared
    finally:
        reset_sweep_log()


# ---------------------------------------------------------------------------
# Checker
# ---------------------------------------------------------------------------


def _report(cells):
    return {"sweeps": [{"label": "fig3[full]", "cells": cells}]}


def test_check_report_passes_within_budget():
    violations, budgeted = check_report(_report([
        {"tag": "('astro2', 4)", "seconds": 3.0, "budget_seconds": 10.0},
        {"tag": "('astro2', 10)", "seconds": 5.0},  # unbudgeted: ignored
    ]))
    assert violations == []
    assert budgeted == 1


def test_check_report_flags_violations():
    violations, budgeted = check_report(_report([
        {"tag": "('bft', 4)", "seconds": 25.0, "budget_seconds": 10.0},
        {"tag": "('bft', 10)", "seconds": 9.0, "budget_seconds": 10.0},
    ]))
    assert budgeted == 2
    assert len(violations) == 1
    assert "('bft', 4)" in violations[0]
    assert "2.50x" in violations[0]


def _write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def test_cli_pass_violation_and_empty(tmp_path, capsys):
    good = _write(tmp_path, "good.json", _report(
        [{"tag": "t", "seconds": 1.0, "budget_seconds": 10.0}]
    ))
    bad = _write(tmp_path, "bad.json", _report(
        [{"tag": "t", "seconds": 99.0, "budget_seconds": 10.0}]
    ))
    empty = _write(tmp_path, "empty.json", _report(
        [{"tag": "t", "seconds": 1.0}]
    ))
    assert main([good]) == 0
    assert main([bad]) == 1
    assert "exceeds budget" in capsys.readouterr().out
    assert main([empty]) == 1
    assert main([empty, "--allow-empty"]) == 0


def test_cli_unwraps_merged_perf_report(tmp_path):
    merged = _write(tmp_path, "perf.json", {
        "wall_seconds": 1.0,
        "sweeps": _report(
            [{"tag": "t", "seconds": 1.0, "budget_seconds": 10.0}]
        ),
    })
    assert main([merged]) == 0

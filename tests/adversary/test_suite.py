"""run_byzantine_robustness: enumeration, knobs, verdicts, JSON shape."""

import json

import pytest

from repro.adversary import ATTACKS
from repro.bench.adversary import (
    applicable_attacks,
    run_byzantine_robustness,
)

FAST = dict(size=4, warmup=0.5, window=2.0, monitor_interval=0.5)


def test_applicable_attacks_catalog():
    assert applicable_attacks("astro2") == sorted(
        applicable_attacks("astro2"), key=list(ATTACKS).index
    )
    assert set(applicable_attacks("astro2")) == set(ATTACKS)
    astro1 = set(applicable_attacks("astro1"))
    assert "forge_credit" not in astro1
    assert "cert_stuffing" not in astro1
    assert {"equivocate", "mute", "selective", "replay", "flood"} <= astro1
    with pytest.raises(ValueError, match="unknown attack"):
        applicable_attacks("astro2", ["no_such_attack"])


def test_suite_runs_all_cells_and_stays_safe():
    suite = run_byzantine_robustness(seed=3, **FAST)
    expected = {
        (system, attack)
        for system in ("astro1", "astro2")
        for attack in applicable_attacks(system)
    }
    assert set(suite.cells) == expected
    assert suite.attacks is None  # no filter given, none in the environment
    assert len(suite.cells) == 12
    assert suite.all_safe
    for (system, attack), cell in suite.cells.items():
        assert cell["system"] == system
        assert cell["attack"] == attack
        assert cell["verdict"]["ok"]
        assert cell["verdict"]["samples"] > 0
        assert cell["tampered"] > 0
        assert len(cell["byzantine"]) == 1  # f = 1 at N = 4
    # The report is JSON-serializable and carries every cell.
    document = json.loads(json.dumps(suite.report()))
    assert document["all_safe"] is True
    assert len(document["cells"]) == 12
    assert {c["attack"] for c in document["cells"]} == set(ATTACKS)
    # The human-readable table mentions every attack and verdict.
    table = suite.table()
    for attack in ATTACKS:
        assert attack in table
    assert "SAFE" in table and "VIOLATED" not in table


def test_attack_and_system_filters():
    suite = run_byzantine_robustness(
        seed=3, systems=("astro2",), attacks=("mute", "forge_credit"),
        **FAST,
    )
    assert set(suite.cells) == {
        ("astro2", "mute"), ("astro2", "forge_credit"),
    }
    assert suite.attacks == ("mute", "forge_credit")


def test_env_attack_filter_and_overrides(monkeypatch):
    monkeypatch.setenv("REPRO_ADVERSARY_ATTACKS", "mute")
    suite = run_byzantine_robustness(
        seed=3, systems=("astro1",), size=7, warmup=0.5, window=2.0,
        adversary_count=1, monitor_interval=0.25,
    )
    assert set(suite.cells) == {("astro1", "mute")}
    # The suite says which filter it resolved, so a caller can check
    # completeness without reading the environment again.
    assert suite.attacks == ["mute"]
    cell = suite.cells[("astro1", "mute")]
    assert len(cell["byzantine"]) == 1  # adversary_count beats f=2
    # 0.25 s cadence over a 2.5 s run plus the final sample.
    assert cell["verdict"]["samples"] >= 9


def test_unsupported_system_rejected():
    with pytest.raises(ValueError, match="adversary suite supports"):
        run_byzantine_robustness(systems=("bft",), **FAST)


def test_cells_are_deterministic():
    first = run_byzantine_robustness(
        seed=5, systems=("astro2",), attacks=("equivocate",), **FAST
    )
    second = run_byzantine_robustness(
        seed=5, systems=("astro2",), attacks=("equivocate",), **FAST
    )
    assert first.report() == second.report()

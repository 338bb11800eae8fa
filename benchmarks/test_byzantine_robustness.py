"""Byzantine robustness — throughput under attack with live monitoring.

Runs one §VI-D-shaped timeline per (system × attack) cell at the paper's
f = ⌊(N−1)/3⌋ adversary bound: f Byzantine replicas arm a quarter into
the observation window while an invariant monitor samples the correct
replicas throughout.  Asserts the safety claim — every monitor verdict
clean — plus coarse liveness (settlement never stops), and writes the
full per-second curves and verdicts to ``BENCH_byzantine.json``.
"""

import json

from repro.bench.adversary import (
    ADVERSARY_SYSTEMS,
    applicable_attacks,
    run_byzantine_robustness,
)


def test_byzantine_robustness(scale):
    suite = run_byzantine_robustness(scale=scale)
    print()
    print(suite.table())

    # Every applicable cell of the filter the suite resolved, no fewer.
    expected = {
        (system, attack)
        for system in ADVERSARY_SYSTEMS
        for attack in applicable_attacks(system, suite.attacks)
    }
    assert set(suite.cells) == expected

    for (system, attack), cell in sorted(suite.cells.items()):
        verdict = cell["verdict"]
        # Safety: all five invariants held at every correct replica, at
        # every sample, under every attack.
        assert verdict["ok"], (
            f"{system}/{attack} violated safety: {verdict['violations']}"
        )
        assert verdict["samples"] >= suite.window  # ~1 Hz cadence
        # The attack actually ran and the run actually settled payments.
        assert cell["tampered"] > 0, f"{system}/{attack} never fired"
        assert cell["completed"] > 0
        # Liveness under f Byzantine replicas: settlement continues after
        # the attack arms (Astro's f < N/3 bound).
        assert cell["after_pps"] > 0, (
            f"{system}/{attack} halted settlement: {cell['series']}"
        )

    path = "BENCH_byzantine.json"
    with open(path, "w") as fh:
        json.dump(suite.report(), fh, indent=2)
        fh.write("\n")
    print(f"[repro] wrote {path} ({len(suite.cells)} cells)")

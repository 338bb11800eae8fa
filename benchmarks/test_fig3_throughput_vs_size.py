"""Fig. 3 — peak throughput vs system size (§VI-C1).

Regenerates the paper's log-scale throughput curves for the three
systems and asserts the qualitative claims:

* both Astro variants beat the consensus baseline at every size;
* Astro II beats Astro I at every size;
* throughput decays as the system grows (quorum systems).

Where the largest cell coalesces its CREDITs across deliveries (the
builders do from N = 50: ``credit_coalesce_window``), Astro II's decay
assertion is skipped: the per-delivery CREDIT fan-out is exactly the
term whose growth drives the decay between the smaller sizes, so the
coalesced end of the curve only decays at larger N where the
COMMIT-certificate quorum verification takes over.  The paper's decay
claim is about the uncoalesced protocol; the ordering claims (and the
other systems' decay) must hold either way.

The estimator guard: every cell's search is seeded with an estimated
bracket, and a well-placed bracket costs 2 bracket probes +
``REFINE_STEPS`` bisections.  ``find_peak`` recovers from a misplaced one
(doubling on / walking down), so a bad estimate shows up only as extra
probes — which the probe ceiling below bounds.
"""

from repro.bench.fig3 import REFINE_STEPS, run_fig3
from repro.bench.systems import credit_coalesce_window

#: Extra probes allowed per cell, on average, for brackets that miss.
#: Set from the measured totals (deterministic for a given scale):
#: smoke 33 probes = 6 anchors + 6 cells × 4 + 3 extra (ceiling 36);
#: quick 58 probes = 6 anchors + 12 cells × 4 + 4 extra (ceiling 66).
#: Full scale is not measured here, so its total is printed but not
#: asserted.
PROBE_SLACK_PER_CELL = 1


def test_fig3_throughput_vs_size(benchmark, scale):
    result = benchmark.pedantic(
        lambda: run_fig3(scale=scale), rounds=1, iterations=1
    )
    print()
    print(result.table())

    cells = len(result.sizes) * len(result.peaks)
    ceiling = result.anchor_probes + cells * (
        2 + REFINE_STEPS + PROBE_SLACK_PER_CELL
    )
    print(f"[fig3] {result.total_probes} probes "
          f"(incl. {result.anchor_probes} anchors; ceiling {ceiling})")
    if scale.name in ("smoke", "quick"):
        assert result.anchor_probes > 0
        assert result.total_probes <= ceiling, (
            f"fig3 spent {result.total_probes} probes on {cells} cells "
            f"(incl. {result.anchor_probes} anchors): the bracket estimator "
            f"is missing — ceiling is {ceiling}, per cell "
            f"{result.probe_counts}"
        )

    bft = result.peaks["bft"]
    astro1 = result.peaks["astro1"]
    astro2 = result.peaks["astro2"]
    for index, size in enumerate(result.sizes):
        assert astro1[index] > bft[index], (
            f"Astro I must outperform consensus at N={size}: "
            f"{astro1[index]:.0f} vs {bft[index]:.0f}"
        )
        assert astro2[index] > bft[index], (
            f"Astro II must outperform consensus at N={size}: "
            f"{astro2[index]:.0f} vs {bft[index]:.0f}"
        )
        assert astro2[index] > astro1[index], (
            f"Astro II must outperform Astro I at N={size}: "
            f"{astro2[index]:.0f} vs {astro1[index]:.0f}"
        )
    # Decay with system size: smallest size beats largest for each system.
    coalesced = credit_coalesce_window(max(result.sizes)) > 0
    for name, series in result.peaks.items():
        if name == "astro2" and coalesced:
            continue  # see module docstring: coalescing defers the decay
        assert series[0] > series[-1], (
            f"{name} throughput should decay with system size: {series}"
        )
    # Order-of-magnitude check at the largest size: the paper reports a
    # >=6x Astro I and >=16x Astro II advantage at N=100; require >=3x.
    assert astro2[-1] / bft[-1] >= 3.0

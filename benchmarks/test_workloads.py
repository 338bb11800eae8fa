"""Workload sweep: throughput + certificate traffic per demand shape.

Runs the standard Astro II cell under each registered workload
(``uniform`` / ``zipf`` / ``merchant``) via the same ``REPRO_WORKLOAD``
resolution path production runs use — genesis regime and demand
distribution switch together — and records per-workload achieved pps,
settled counts, and Astro II certificate traffic into
``BENCH_perf.json`` under ``"workloads"``.

The merchant cell doubles as the end-to-end credit-funding check: tight
merchant genesis forces payouts to wait for settled purchase income, so
the run must mint dependency certificates (f+1 CREDITs, Listing 7) and
settle payments carrying non-empty ``deps``.
"""

from __future__ import annotations

from repro.bench.report import merge_perf_report, print_table
from repro.bench.runner import run_open_loop
from repro.bench.systems import build_astro2
from repro.workloads import WORKLOAD_NAMES

NUM_REPLICAS = 4
RATE = 400.0
DURATION = 2.0
WARMUP = 0.5
SEED = 0


def _deps_settled(system) -> int:
    """Settled payments carrying dependency certificates (replica 0)."""
    accounts = system.replicas[0].state.accounts()
    return sum(len(xlog.deps) for _, _, _, xlog in accounts)


def test_workload_sweep(scale, monkeypatch):
    report = {}
    for name in WORKLOAD_NAMES:
        monkeypatch.setenv("REPRO_WORKLOAD", name)
        system = build_astro2(NUM_REPLICAS, seed=SEED)
        result = run_open_loop(
            system, rate=RATE, duration=DURATION, warmup=WARMUP, seed=SEED
        )
        system.settle_all()
        report[name] = {
            "achieved_pps": round(result.achieved, 1),
            "injected": result.injected,
            "confirmed": result.confirmed,
            "settled_at_replica0": system.replicas[0].settled_count,
            "minted_subbatches": sum(
                r._collector.minted_subbatches for r in system.replicas
            ),
            "deps_settled": _deps_settled(system),
            "rejected": sum(len(r.rejected) for r in system.replicas),
        }

    path = merge_perf_report({
        "workloads": {
            "scenario": {
                "system": "astro2",
                "num_replicas": NUM_REPLICAS,
                "rate": RATE,
                "duration": DURATION,
                "warmup": WARMUP,
                "seed": SEED,
            },
            "results": report,
        }
    })
    print_table(
        ["workload", "pps", "confirmed", "subbatch certs", "deps settled"],
        [
            [
                name,
                cell["achieved_pps"],
                cell["confirmed"],
                cell["minted_subbatches"],
                cell["deps_settled"],
            ]
            for name, cell in report.items()
        ],
        title=f"Workload sweep (astro2 N={NUM_REPLICAS}; report: {path})",
    )

    # Every workload must actually move payments.
    for name, cell in report.items():
        assert cell["confirmed"] > 0, f"workload {name!r} confirmed nothing"
    # The tight-balance merchant regime must exercise the credit path
    # end to end: dependency certificates minted AND settled spends
    # carrying them.
    assert report["merchant"]["minted_subbatches"] > 0
    assert report["merchant"]["deps_settled"] > 0

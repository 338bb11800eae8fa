"""In-process A/B speed checks of the simulator's own alternatives.

Every test here times two arms *in this process, on this host* — so no
baseline recorded elsewhere and no machine calibration is involved —
and asserts byte-identical results before any speed claim:

* ``test_parallel_sweep_speedup`` — scenario-level parallelism
  (``repro.bench.parallel``): the same independent peak-search jobs on
  the serial backend and on a two-worker process pool; byte-identical
  results on every host, the 1.25x wall-clock floor on ≥ 4 usable cores
  (two shared vCPUs carry the parent and both workers: 1.14x, 1.15x and
  a pass on three consecutive runs of untouched code);
* ``test_credit_coalescing_speedup`` (PR 5) — the cross-delivery CREDIT
  coalescer (``AstroConfig.credit_coalesce_delay``) against the default
  per-delivery flush on the large cell (astro2, N=32, saturating
  open-loop rate: the wall-clock shape of a full-scale Fig. 3 probe).
  The off arm *is* the pre-coalescer engine (the knob's default path is
  pinned byte-identical by the golden-history tests).  It asserts the CREDIT message count
  drops ≥ 5x (a deterministic count, asserted on any machine) and that
  simulated-pps improves ≥ 1.15x (wall-clock, asserted on ≥ 2 cores only —
  1-vCPU shared runners stall unpredictably mid-measurement).

Whether a *change* made the engine slower is not judged here: that is
``perfbench``'s job (``BENCHMARK.json``; its ``sim_astro2_n32`` workload
is this file's large cell), in interleaved parent/change pairs on one
host.

The assertion floors are the module constants below; the report is
``BENCH_perf.json`` (:data:`repro.bench.report.PERF_JSON`).
"""

from __future__ import annotations

import time

import pytest

from repro.bench.jobs import exec_find_peak
from repro.bench.parallel import ScenarioJob, derive_seed, execute, usable_cpus
from repro.bench.profile import DEFAULT_SEED
from repro.bench.runner import run_open_loop
from repro.bench.systems import build_astro2, scaled_batch_delay

# ---------------------------------------------------------------------------
# Assertion floors, each set below the locally measured multiple to absorb
# CI timer noise (the exact multiples are printed and recorded).
# ---------------------------------------------------------------------------

#: Two-worker pool vs serial sweep.
PAR_MIN_SPEEDUP = 1.25
#: Coalescing on vs off: simulated pps, and CREDIT transport messages.
COALESCE_MIN_SPEEDUP = 1.15
COALESCE_MIN_CREDIT_DROP = 5.0

# ---------------------------------------------------------------------------
# Large-cell scenario (PR 4): astro2, N=32, saturating open-loop probe —
# the wall-clock shape of one full-scale Fig. 3 cell.
# ---------------------------------------------------------------------------

LARGE_SYSTEM = "astro2"
LARGE_N = 32
LARGE_RATE = 8_000.0
LARGE_DURATION = 2.0
LARGE_WARMUP = 0.5
LARGE_SEED = 2


def _update_perf_report(key, payload):
    """Merge one scenario section into BENCH_perf.json (create if absent).

    Every scenario in this file writes through
    :func:`repro.bench.report.merge_perf_report`, so tests never
    truncate each other's sections regardless of execution order.
    """
    from repro.bench.report import merge_perf_report

    return merge_perf_report({key: payload})


def test_parallel_sweep_speedup(scale):
    """The process-pool backend returns byte-identical results on every
    host (the determinism guarantee of the job model) and must beat
    serial where there are cores for it to use."""
    cores = usable_cpus()

    # Four independent peak searches — the shape of one Fig. 3 sweep
    # column — with per-job seeds spawned from the jobs' identity keys.
    units = [
        ScenarioJob(
            fn=exec_find_peak,
            params=dict(
                system="astro2", size=4, start_rate=4000.0,
                duration=0.5, warmup=0.3, refine_steps=1,
                payment_budget=8000, max_probes=4, reuse_state=True,
            ),
            seed=derive_seed(DEFAULT_SEED, "parallel-speedup", index),
            tag=index,
        )
        for index in range(4)
    ]

    start = time.perf_counter()
    serial = execute(units, jobs=1, label="speedup-check-serial")
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel = execute(units, jobs=2, label="speedup-check-parallel")
    parallel_seconds = time.perf_counter() - start

    # Determinism first: worker count must not change a single bit.
    assert [r.peak_pps for r in serial] == [r.peak_pps for r in parallel]
    assert [repr(p) for r in serial for p in r.probes] == [
        repr(p) for r in parallel for p in r.probes
    ]

    speedup = serial_seconds / parallel_seconds
    print(
        f"\n[perf] parallel sweep: serial {serial_seconds:.2f}s vs "
        f"2-worker pool {parallel_seconds:.2f}s = {speedup:.2f}x "
        f"({cores} cores)"
    )
    # Two vCPUs carry the parent and both workers; the wall-clock floor
    # needs cores to spare.
    if cores < 4:
        pytest.skip(f"wall-clock floor needs >= 4 cores (have {cores}); "
                    f"byte-identity held, measured {speedup:.2f}x")
    assert speedup >= PAR_MIN_SPEEDUP, (
        f"parallel sweep not faster: serial {serial_seconds:.2f}s, "
        f"parallel {parallel_seconds:.2f}s ({speedup:.2f}x < {PAR_MIN_SPEEDUP}x)"
    )


def test_credit_coalescing_speedup(scale):
    """Cross-delivery CREDIT coalescing on the large credit-bound cell:
    ≥ 5x fewer CREDIT transport messages, ≥ 1.15x simulated-pps — against
    the per-delivery flush, which is byte-identical to the pre-coalescer
    engine (so the off arm IS the pre-PR baseline, no calibration).

    Throughput equivalence alone cannot detect a coalescer that silently
    stops minting dependency certificates (uniform_genesis balances are
    large enough that the measured window never needs credits), so the
    certificate pipeline is asserted directly: the coalesced arm must
    mint the same sub-batches under the same pair-varying europe_wan
    latency the builders always use, and strand nothing."""
    cores = usable_cpus()
    window = scaled_batch_delay(LARGE_N)  # what N >= 50 builds get

    def run_once(delay):
        built = build_astro2(
            LARGE_N, seed=LARGE_SEED, credit_coalesce_delay=delay,
            track_kinds=True,
        )
        start = time.perf_counter()
        result = run_open_loop(
            built, rate=LARGE_RATE, duration=LARGE_DURATION,
            warmup=LARGE_WARMUP, seed=LARGE_SEED,
        )
        wall = time.perf_counter() - start
        by_kind = built.network.stats.by_kind
        credits = by_kind.get("CreditMessage", 0) + by_kind.get("CreditBundle", 0)
        minted = sum(r._collector.minted_subbatches for r in built.replicas)
        pending = sum(r._collector.pending_subbatches for r in built.replicas)
        return result, wall, credits, minted, pending

    # Interleaved A/B, best-of-2 walls to absorb timer noise.
    off_result, off_wall, off_credits, off_minted, off_pending = run_once(0.0)
    on_result, on_wall, on_credits, on_minted, on_pending = run_once(window)
    _off2, off_wall2, _c, _m, _p = run_once(0.0)
    _on2, on_wall2, _c, _m, _p = run_once(window)
    off_pps = off_result.confirmed / min(off_wall, off_wall2)
    on_pps = on_result.confirmed / min(on_wall, on_wall2)

    assert on_credits > 0 and off_credits > 0
    credit_drop = off_credits / on_credits
    speedup = on_pps / off_pps
    path = _update_perf_report("credit_coalescing", {
        "scenario": {"system": LARGE_SYSTEM, "num_replicas": LARGE_N,
                     "rate": LARGE_RATE, "duration": LARGE_DURATION,
                     "warmup": LARGE_WARMUP, "seed": LARGE_SEED,
                     "coalesce_window": window},
        "credit_messages_off": off_credits,
        "credit_messages_on": on_credits,
        "credit_message_drop": round(credit_drop, 2),
        "minted_subbatches_off": off_minted,
        "minted_subbatches_on": on_minted,
        "pending_subbatches_off": off_pending,
        "pending_subbatches_on": on_pending,
        "pps_off": round(off_pps),
        "pps_on": round(on_pps),
        "speedup": round(speedup, 3),
        "achieved_off": off_result.achieved,
        "achieved_on": on_result.achieved,
        "cores": cores,
    })
    print(f"\n[perf] credit coalescing ({LARGE_SYSTEM} N={LARGE_N}, "
          f"window={window:.3f}s): CREDIT messages {off_credits} -> "
          f"{on_credits} ({credit_drop:.1f}x fewer), certificates "
          f"{off_minted} -> {on_minted}, stranded {off_pending} -> "
          f"{on_pending}, {off_pps:,.0f} -> {on_pps:,.0f} pay/wall-sec "
          f"({speedup:.2f}x; report: {path})")

    # The certificate pipeline must not degrade: sub-batches are cut per
    # delivery in both arms, so minted counts may differ only by windows
    # still in flight at the run's cutoff (regression guard for the
    # stranded-credit collapse, where this dropped ~35x).
    assert off_minted > 0
    assert on_minted >= 0.90 * off_minted, (
        f"coalescing degraded certificate minting: {off_minted} -> "
        f"{on_minted} sub-batches"
    )
    assert on_pending <= max(64, off_pending * 2 + LARGE_N), (
        f"coalescing strands sub-batches short of f+1 CREDITs: "
        f"{on_pending} pending (off arm: {off_pending})"
    )
    # The message-count drop is a deterministic count: assert everywhere.
    assert credit_drop >= COALESCE_MIN_CREDIT_DROP, (
        f"CREDIT coalescing ineffective: {off_credits} -> {on_credits} "
        f"messages is only {credit_drop:.2f}x (floor {COALESCE_MIN_CREDIT_DROP}x)"
    )
    # Coalescing must not cost simulated throughput in the measured window.
    assert on_result.achieved >= off_result.achieved * 0.95
    # Wall-clock is only trustworthy with a core to spare.
    if cores < 2:
        pytest.skip(f"wall-clock floor needs >= 2 cores (have {cores}); "
                    f"measured {speedup:.2f}x")
    assert speedup >= COALESCE_MIN_SPEEDUP, (
        f"coalescing speedup too small: {on_pps:,.0f} vs {off_pps:,.0f} "
        f"pay/wall-sec ({speedup:.2f}x < {COALESCE_MIN_SPEEDUP}x)"
    )


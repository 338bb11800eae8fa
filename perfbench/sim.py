"""One run of a ``sim_*`` workload: the serial simulator, N = 32.

``--seconds`` fixes the *simulated* horizon (``SIM_PER_SECOND``
simulated seconds per budgeted host second), not the host time: the
exact counts (events, messages, bytes, simulated latencies) are only
comparable between two commits when both did identical work.  At the
seed commit the horizon takes a little under ``--seconds`` of host time.

The reported rate is every payment confirmed by the horizon divided by
the reference seconds (:mod:`perfbench.host`) the horizon took.  It is
executed in quarter-second simulated slices: the host's speed is read
before each, and a traced run profiles every third slice with cProfile
(per-event wrappers would triple the run) and reads the host-time
shares off ``repro.bench.profile.phase_breakdown``.
"""

from __future__ import annotations

import cProfile
import pstats
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.bench.profile import phase_breakdown
from repro.bench.runner import finish_open_loop, setup_open_loop
from repro.bench.systems import SYSTEM_BUILDERS
from repro.core.persistence import state_fingerprint

from .host import HostMeter

__all__ = ["SimSpec", "run_sim"]

clock = time.perf_counter

#: Simulated seconds per slice.
SLICE = 0.25

#: Builds per run, median reported (the driver's contract asks for
#: several; a single ~2 ms reading moves ±30 % with the host).  The last
#: system is the one driven.
SETUP_REPS = 25

#: A traced run profiles slices whose index is 1 modulo this.
PROFILE_EVERY = 3

#: Kernel rounds timed before every slice (≈ 65 ms beside ≈ 1 s of
#: simulation) and before every set-up (≈ 11 ms beside ≈ 2 ms).
SLICE_KERNEL_ROUNDS = 600_000
SETUP_KERNEL_ROUNDS = 100_000


#: Replicas of both simulator workloads (Fig. 3's large-N regime).
REPLICAS = 32

#: Simulated seconds before and after the measured window.
WARMUP = 0.5
DRAIN = 0.5

#: Simulated seconds measured per second of ``--seconds`` (3.0 at 20).
SIM_PER_SECOND = 0.15


@dataclass(frozen=True)
class SimSpec:
    system: str
    #: Offered load, simulated payments per simulated second.
    rate: float


def _profile_rows(stats: pstats.Stats, needle: str) -> Dict[str, List[float]]:
    """funcname -> [calls, in-function seconds] for files matching."""
    rows: Dict[str, List[float]] = {}
    for (filename, _line, funcname), entry in stats.stats.items():
        if needle in filename.replace("\\", "/"):
            row = rows.setdefault(funcname, [0, 0.0])
            row[0] += entry[1]
            row[1] += entry[2]
    return rows


def run_sim(spec: SimSpec, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    builder = SYSTEM_BUILDERS[spec.system]
    duration = max(SLICE, round(SIM_PER_SECOND * seconds / SLICE) * SLICE)
    setup_meter = HostMeter(SETUP_KERNEL_ROUNDS)
    setup_times: List[float] = []
    setup_factors: List[float] = []
    for _ in range(SETUP_REPS):
        setup_factors.append(setup_meter.sample())
        began = clock()
        system = builder(REPLICAS, seed=seed)
        driver, _meter, recorder, window_start, window_end = setup_open_loop(
            system, spec.rate, duration, WARMUP, seed=seed
        )
        setup_times.append(clock() - began)
    genesis_total = sum(system.genesis.values())

    profiler = cProfile.Profile() if traced else None
    meter = HostMeter(SLICE_KERNEL_ROUNDS)
    slices: List[Dict[str, float]] = []
    horizon = window_end + DRAIN
    steps = round(horizon / SLICE)
    for index in range(steps):
        until = (index + 1) * SLICE
        profiled = profiler is not None and index % PROFILE_EVERY == 1
        factor = meter.sample()
        confirmed, events = driver.confirmed, system.sim.events_executed
        cpu, wall = time.process_time(), clock()
        if profiled:
            profiler.enable()
        system.run(until)
        if profiled:
            profiler.disable()
        slices.append(
            {
                "wall_s": clock() - wall,
                "cpu_s": time.process_time() - cpu,
                "confirmed": driver.confirmed - confirmed,
                "events": system.sim.events_executed - events,
                "profiled": profiled,
                "factor": factor,
            }
        )
    finish_open_loop(system, driver)
    network = system.network.stats
    confirmed_at_horizon = driver.confirmed
    # Pure functions of (commit, seed): the suite and ``compare`` require
    # them identical between runs of one seed, whatever the host did.
    counts = {
        "events": system.sim.events_executed,
        "messages": network.messages_sent,
        "bytes": network.bytes_sent,
        "confirmed": confirmed_at_horizon,
    }
    elapsed_sim = system.sim.now
    cpu_util = max(r.transport.cpu.utilization(elapsed_sim) for r in system.replicas)
    link_util = max(r.transport.link.utilization(elapsed_sim) for r in system.replicas)
    summary = recorder.summary()
    counts.update(
        lat_samples=summary.count,
        model_p50_ms=summary.p50 * 1e3,
        model_p95_ms=summary.p95 * 1e3,
    )

    # Quiesce, then the correctness gate.
    system.settle_all()
    problems: List[str] = []
    total = (
        system.total_value() if spec.system == "astro2" else system.total_value(0)
    )
    if total != genesis_total:
        problems.append(f"total value {total} != genesis {genesis_total}")
    if len({state_fingerprint(r.state) for r in system.replicas}) != 1:
        problems.append("replicas ended on different state fingerprints")
    rejected = max(len(r.rejected) for r in system.replicas)
    settled = {r.settled_count for r in system.replicas}
    if settled != {driver.injected}:
        problems.append(f"settled {sorted(settled)} != injected {driver.injected}")
    failed = driver.injected - min(settled) + rejected

    # Host cost per event, from the slices the profiler did not slow.
    plain = [s for s in slices if not s["profiled"]]
    wall_per_event = sum(s["wall_s"] for s in plain) / sum(s["events"] for s in plain)
    # Every slice counts, each in reference seconds: its host seconds
    # divided by the host's slowness factor read just before it.
    run_seconds = sum(s["wall_s"] for s in slices)
    cpu_seconds = sum(s["cpu_s"] for s in slices)
    reference_wall = sum(s["wall_s"] / s["factor"] for s in slices)
    reference_cpu = sum(s["cpu_s"] / s["factor"] for s in slices)
    values: Dict[str, float] = {
        "setup_s": statistics.median(
            t / f for t, f in zip(setup_times, setup_factors)
        ),
        "pps": confirmed_at_horizon / reference_wall,
        "cpu_us_per_payment": reference_cpu / confirmed_at_horizon * 1e6,
        "lat_p50_ms": summary.p50 * 1e3,
        "lat_p95_ms": summary.p95 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info: Dict[str, Any] = {
        "sim_duration_s": duration,
        "host_seconds": run_seconds,
        "host_factor": meter.mean_factor(),
        "pps_raw": confirmed_at_horizon / run_seconds,
        "cpu_us_per_payment_raw": cpu_seconds / confirmed_at_horizon * 1e6,
        "setup_s_raw": statistics.median(setup_times),
        "setup_first_s": setup_times[0],
        "counts": counts,
        "events_per_payment": counts["events"] / confirmed_at_horizon,
    }
    if traced:
        values.update(
            {
                "sim.events.executed": counts["events"],
                "sim.network.messages_sent": counts["messages"],
                "sim.network.bytes_sent": counts["bytes"],
                "sim.events.host_us_per_event": wall_per_event * 1e6,
                "sim.resources.cpu_util_max": cpu_util,
                "sim.resources.link_util_max": link_util,
                "bench.runner.model_pps": summary.count / duration,
                "bench.runner.model_p50_ms": summary.p50 * 1e3,
                "bench.runner.model_p95_ms": summary.p95 * 1e3,
                "brb.batching.payments_per_batch": confirmed_at_horizon
                / max(1, sum(r.batcher.batches_flushed for r in system.replicas)),
            }
        )
        if spec.system == "astro2":
            values["core.dependencies.certs_minted"] = sum(
                r._collector.minted_subbatches for r in system.replicas
            )
        profiled = [s for s in slices if s["profiled"]]
        values["trace.overhead_ratio"] = (
            sum(s["wall_s"] for s in profiled)
            / sum(s["events"] for s in profiled)
            / wall_per_event
        )
        info["profiled_slices"] = len(profiled)
        info["phase_seconds"] = _profile_values(
            pstats.Stats(profiler), sum(s["confirmed"] for s in profiled) or 1, values
        )
    return {
        "values": values,
        "info": info,
        "attempted": driver.injected,
        "failed": failed,
        "problems": problems,
    }


def _profile_values(
    stats: pstats.Stats, payments: int, values: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer readings off the cProfile table of the profiled slices.

    ``payments`` is what those slices confirmed.  Times carry the
    profiler's overhead (``trace.overhead_ratio``); shares and counts
    do not.  Returns the phase seconds.
    """
    phases = phase_breakdown(stats)
    grand = sum(phases.values()) or 1.0

    def per_payment_us(needle: str, *funcs: str) -> float:
        rows = _profile_rows(stats, needle)
        chosen = rows.values() if not funcs else [rows.get(f, [0, 0.0]) for f in funcs]
        return sum(row[1] for row in chosen) / payments * 1e6

    def calls_per_payment(needle: str, func: str) -> float:
        return _profile_rows(stats, needle).get(func, [0, 0.0])[0] / payments

    values.update(
        {
            "sim.events.host_share": phases["scheduler"] / grand,
            "sim.network.host_share": phases["network"] / grand,
            "crypto.host_share": phases["crypto"] / grand,
            "protocol.host_share": phases["protocol"] / grand,
            "workloads.host_share": phases["workload"] / grand,
            "trace.coverage": 1.0 - phases["other"] / grand,
            "brb.signed.handler_us_per_payment": per_payment_us("/repro/brb/signed.py"),
            "brb.bracha.handler_us_per_payment": per_payment_us("/repro/brb/bracha.py"),
            "crypto.signatures.sign_per_payment": calls_per_payment(
                "/repro/crypto/signatures.py", "sign"
            ),
            "crypto.signatures.verify_per_payment": calls_per_payment(
                "/repro/crypto/signatures.py", "verify"
            ),
            "crypto.signatures.us_per_payment": per_payment_us(
                "/repro/crypto/signatures.py"
            ),
            "crypto.hashing.digest_us_per_payment": per_payment_us(
                "/repro/crypto/hashing.py"
            ),
            "core.replica.ingest_us_per_payment": per_payment_us(
                "/repro/core/replica.py", "ingest", "submit_local", "_flush_batch",
                "_launch_batch",
            ),
            "core.replica.deliver_us_per_payment": per_payment_us(
                "/repro/core/replica.py", "_deliver_batch", "_drain", "_confirm",
                "_batch_done",
            )
            + per_payment_us(
                "/repro/core/astro", "_on_brb_deliver", "_settle", "_approve_funds"
            ),
            "core.accounts.settle_us_per_payment": per_payment_us(
                "/repro/core/accounts.py"
            ),
            "core.astro2.credit_us_per_payment": per_payment_us(
                "/repro/core/astro2.py", "_flush_credits", "_credit_groups",
                "_emit_credit", "_sign_subbatch", "_send_credits", "_on_credit",
                "_on_credit_bundle", "_apply_credit", "_flush_credit_window",
            ),
            "core.dependencies.verify_us_per_payment": per_payment_us(
                "/repro/core/dependencies.py", "verify_certificate"
            ),
            "core.dependencies.credits_per_payment": calls_per_payment(
                "/repro/core/dependencies.py", "add_credit"
            ),
            "workloads.next_us_per_payment": per_payment_us("/repro/workloads/"),
        }
    )
    return phases

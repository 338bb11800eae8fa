"""Table I — Smallbank sharded benchmark (§VI-C2).

Paper setup: Astro II with 2/3/4 shards of 52 replicas each, Smallbank
workload with 12.5 % cross-shard transactions, with and without an extra
20 ms inter-replica delay (tc).  The BFT-SMaRt column is an optimistic
single-shard upper bound (the paper omits its 2PC cross-shard cost), and
so is ours.

Paper anchors (per-shard \\ total Kpps; latency avg \\ p95 ms):

====  =====  ==================  ===============  =============
 #     tc     Astro II thr.       Astro II lat.    BFT-S thr.
====  =====  ==================  ===============  =============
 2      0     7.9 \\ 15.7         204 \\ 279        1.0 \\ 2.0
 2     20     5.1 \\ 10.2         479 \\ 705        0.3 \\ 0.5
 3      0     5.1 \\ 15.4         213 \\ 375        1.0 \\ 3.1
 3     20     4.5 \\ 13.6         368 \\ 656        0.3 \\ 0.8
 4      0     5.0 \\ 20.1         213 \\ 259        1.0 \\ 4.1
 4     20     4.5 \\ 18.1         354 \\ 620        0.3 \\ 1.1
====  =====  ==================  ===============  =============

Reproduced claims: total throughput scales near-linearly with shards,
per-shard throughput decreases slightly with more shards (more cross-shard
traffic), the 20 ms delay costs throughput and latency, and Astro II's
totals dominate the consensus upper bound by ~5×.

Execution model: every (shards, tc) cell is one :func:`measure_astro2_cell`
job and every tc value one :func:`measure_bft_upper_bound` job (the
single-shard upper bound is shared across shard counts); all jobs are
independent and run concurrently on the parallel backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.system import Astro2System
from ..consensus.system import BftSystem
from ..sim.latency import europe_wan
from ..workloads.smallbank import (
    SmallbankWorkload,
    shard_assignment,
    smallbank_genesis,
)
from .parallel import ScenarioJob, execute
from .peak import find_peak
from .report import format_table
from .runner import run_open_loop
from .scale import BenchScale, current_scale

__all__ = [
    "Table1Row",
    "Table1Result",
    "run_table1",
    "measure_astro2_cell",
    "measure_bft_upper_bound",
]

#: Account owners per shard in the Smallbank population.
OWNERS_PER_SHARD = 32

#: Table I's two network settings: the WAN as is, and +20 ms of
#: ``tc`` delay on every replica's egress.
TC_DELAYS_MS = (0.0, 20.0)


@dataclass
class Table1Row:
    shards: int
    tc_delay_ms: float
    per_shard_kpps: float
    total_kpps: float
    latency_avg_ms: float
    latency_p95_ms: float
    bft_per_shard_kpps: float
    bft_total_kpps: float


@dataclass
class Table1Result:
    rows: List[Table1Row]
    shard_size: int

    def table(self) -> str:
        headers = [
            "#", "tc (ms)",
            "AstroII per-shard\\total (Kpps)", "AstroII lat avg\\p95 (ms)",
            "BFT-S per-shard\\total (Kpps)",
        ]
        rendered = []
        for row in self.rows:
            rendered.append([
                row.shards,
                f"{row.tc_delay_ms:.0f}",
                f"{row.per_shard_kpps:.1f} \\ {row.total_kpps:.1f}",
                f"{row.latency_avg_ms:.0f} \\ {row.latency_p95_ms:.0f}",
                f"{row.bft_per_shard_kpps:.1f} \\ {row.bft_total_kpps:.1f}",
            ])
        return format_table(
            headers, rendered,
            title=(
                f"Table I — Smallbank sharded benchmark "
                f"({self.shard_size} replicas/shard)"
            ),
        )


def _build_smallbank_astro2(
    shards: int, shard_size: int, delay_ms: float, seed: int
) -> Tuple[Astro2System, SmallbankWorkload]:
    owners = OWNERS_PER_SHARD * shards
    genesis = smallbank_genesis(owners, num_shards=shards)
    assignment = shard_assignment(owners, shards)
    total = shards * shard_size
    system = Astro2System(
        num_replicas=shard_size,
        num_shards=shards,
        genesis=genesis,
        seed=seed,
        latency=europe_wan(total + 512, seed=seed),
        shard_assignment=assignment,
    )
    if delay_ms > 0:
        for replica in system.replicas:
            system.network.set_egress_delay(replica.node_id, delay_ms / 1e3)
    workload = SmallbankWorkload(owners, num_shards=shards, seed=seed)
    return system, workload


def measure_astro2_cell(
    shards: int,
    shard_size: int,
    delay_ms: float,
    duration: float,
    seed: int,
    payment_budget: int = 150_000,
    max_probes: Optional[int] = None,
    reuse_state: bool = False,
) -> Tuple[float, float, float]:
    """Returns (total pps, avg latency s, p95 latency s) at peak load."""

    def factory() -> Astro2System:
        system, _ = _build_smallbank_astro2(shards, shard_size, delay_ms, seed)
        return system

    peak = find_peak(
        factory,
        start_rate=8000.0 * shards,
        duration=duration / 2,
        warmup=duration / 3,
        refine_steps=1,
        seed=seed,
        workload_factory=lambda _system: SmallbankWorkload(
            OWNERS_PER_SHARD * shards, num_shards=shards, seed=seed
        ),
        payment_budget=payment_budget,
        max_probes=max_probes,
        reuse_state=reuse_state,
    )
    # One clean confirmation run just below peak for latency numbers.
    system, workload = _build_smallbank_astro2(shards, shard_size, delay_ms, seed)
    result = run_open_loop(
        system,
        rate=max(peak.peak_pps * 0.9, 1.0),
        duration=duration,
        warmup=duration / 2,
        workload=workload,
        seed=seed,
    )
    return result.achieved, result.latency.mean, result.latency.p95


def measure_bft_upper_bound(
    shard_size: int,
    delay_ms: float,
    duration: float,
    seed: int,
    payment_budget: int = 150_000,
    max_probes: Optional[int] = None,
    reuse_state: bool = False,
) -> float:
    """Single-shard BFT-SMaRt peak (the paper's optimistic upper bound)."""

    def factory() -> BftSystem:
        owners = OWNERS_PER_SHARD
        genesis = smallbank_genesis(owners, num_shards=1)
        system = BftSystem(
            num_replicas=shard_size,
            genesis=genesis,
            seed=seed,
            latency=europe_wan(shard_size + 256, seed=seed),
        )
        if delay_ms > 0:
            for replica in system.replicas:
                system.network.set_egress_delay(replica.node_id, delay_ms / 1e3)
        return system

    peak = find_peak(
        factory,
        start_rate=2000.0,
        duration=duration / 2,
        warmup=duration / 3,
        refine_steps=1,
        seed=seed,
        workload_factory=lambda sys_: SmallbankWorkload(
            OWNERS_PER_SHARD, num_shards=1, seed=seed
        ),
        payment_budget=payment_budget,
        max_probes=max_probes,
        reuse_state=reuse_state,
    )
    return peak.peak_pps


def run_table1(
    scale: Optional[BenchScale] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> Table1Result:
    if scale is None:
        scale = current_scale()
    knobs = dict(
        payment_budget=scale.peak_payment_budget,
        max_probes=scale.peak_probe_cap,
        reuse_state=scale.peak_reuse_state,
    )
    units: List[ScenarioJob] = [
        ScenarioJob(
            fn=measure_astro2_cell,
            params=dict(
                shards=shards,
                shard_size=scale.table1_shard_size,
                delay_ms=delay_ms,
                duration=scale.table1_duration,
                **knobs,
            ),
            seed=seed,
            tag=("astro2", shards, delay_ms),
        )
        for shards in scale.table1_shard_counts
        for delay_ms in TC_DELAYS_MS
    ]
    # The BFT column is a single-shard upper bound shared by every shard
    # count: one job per delay value (the old code's per-delay cache).
    units += [
        ScenarioJob(
            fn=measure_bft_upper_bound,
            params=dict(
                shard_size=scale.table1_shard_size,
                delay_ms=delay_ms,
                duration=scale.table1_duration,
                **knobs,
            ),
            seed=seed,
            tag=("bft", delay_ms),
        )
        for delay_ms in TC_DELAYS_MS
    ]
    results = execute(units, jobs=jobs, label=f"table1[{scale.name}]")
    by_tag = dict(zip((unit.tag for unit in units), results))
    rows: List[Table1Row] = []
    for shards in scale.table1_shard_counts:
        for delay_ms in TC_DELAYS_MS:
            total, avg, p95 = by_tag[("astro2", shards, delay_ms)]
            bft_per_shard = by_tag[("bft", delay_ms)]
            rows.append(
                Table1Row(
                    shards=shards,
                    tc_delay_ms=delay_ms,
                    per_shard_kpps=total / shards / 1e3,
                    total_kpps=total / 1e3,
                    latency_avg_ms=avg * 1e3,
                    latency_p95_ms=p95 * 1e3,
                    bft_per_shard_kpps=bft_per_shard / 1e3,
                    bft_total_kpps=bft_per_shard * shards / 1e3,
                )
            )
    return Table1Result(rows=rows, shard_size=scale.table1_shard_size)

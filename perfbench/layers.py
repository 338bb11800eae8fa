"""Per-layer readings of a traced live run, and their reconciliation.

Every ``*_us_per_payment`` is the layer's *self* time (spans started in
the open loop's measured window, summed over the N replicas and the
load generator) divided by the payments confirmed in that window.  CPU
no span covers — the event loop, socket reads, queue hops — is
``runtime.residual_us_per_payment``; ``trace.coverage`` is the covered
share.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional

from repro.core.persistence import WriteAheadLog

from .stats import percentile
from .trace import LAYER_OF, Tracer

__all__ = ["live_layer_values", "check_wal_records"]


def live_layer_values(
    tracer: Tracer,
    cluster: Any,
    loadgen: Any,
    reading: Dict[str, Any],
    reference: Optional[Dict[str, Any]],
    values: Dict[str, float],
    info: Dict[str, Any],
    problems: List[str],
) -> None:
    window_start, window_end = reading["window"]
    confirmed = reading["confirmed"]
    spans = tracer.aggregate(window_start, window_end)
    family_self: Dict[str, float] = {}
    for name, row in spans.items():
        family = LAYER_OF[name]
        family_self[family] = family_self.get(family, 0.0) + row["self_s"]

    def us(family: str) -> float:
        return family_self.get(family, 0.0) / confirmed * 1e6

    def count(name: str) -> float:
        return spans.get(name, {"count": 0})["count"]

    def total_ms(family: str) -> float:
        return sum(
            row["total_s"] for name, row in spans.items() if LAYER_OF[name] == family
        ) * 1e3

    covered = sum(family_self.values())
    samples = tracer.samples
    counters = tracer.counters
    transports = [*cluster.transports, cluster.loadgen_transport]
    # Span counts are the window's; byte counters are whole-run totals
    # and are divided by the whole run's confirmed payments.
    wire_frames = count("transport.framing.encode")
    wal_records = count("core.persistence.append")
    payouts = max(1, getattr(loadgen.workload, "payouts", 0))
    values.update(
        {
            "transport.framing.encode_us_per_payment": us("transport.framing.encode"),
            "transport.framing.decode_us_per_payment": us("transport.framing.decode"),
            "transport.framing.frames_per_payment": wire_frames / confirmed,
            "transport.framing.bytes_per_payment": counters["wire_bytes"]
            / loadgen.confirmed,
            "transport.tcp.send_us_per_payment": us("transport.tcp.send"),
            "transport.tcp.dispatch_us_per_payment": us("transport.tcp.dispatch"),
            "transport.tcp.handshake_ms": statistics.median(samples["handshake_s"])
            * 1e3,
            "transport.tcp.queue_dropped": sum(
                t.stats.queue_dropped for t in transports
            ),
            "brb.batching.payments_per_batch": statistics.mean(samples["batch_size"]),
            "brb.batching.wait_ms_p50": percentile(samples["batch_wait_s"], 0.5) * 1e3,
            "brb.signed.round_ms_p50": percentile(samples["brb_round_s"], 0.5) * 1e3,
            "brb.signed.handler_us_per_payment": us("brb.signed.handler"),
            "crypto.signatures.sign_per_payment": count("crypto.signatures.sign")
            / confirmed,
            "crypto.signatures.verify_per_payment": count("crypto.signatures.verify")
            / confirmed,
            "crypto.signatures.us_per_payment": us("crypto.signatures"),
            "crypto.hashing.digest_us_per_payment": us("crypto.hashing.digest"),
            "core.replica.ingest_us_per_payment": us("core.replica.ingest")
            + us("brb.batching"),
            "core.replica.deliver_us_per_payment": us("core.replica.deliver"),
            "core.accounts.settle_us_per_payment": us("core.accounts.settle"),
            "core.astro2.credit_us_per_payment": us("core.astro2.credit"),
            "core.dependencies.credits_per_payment": count(
                "core.dependencies.add_credit"
            )
            / confirmed,
            "core.dependencies.certs_minted": sum(
                r._collector.minted_subbatches for r in cluster.replicas
            ),
            "core.dependencies.certs_per_payout": loadgen.deps_confirmed / payouts,
            "core.dependencies.verify_us_per_payment": us("core.dependencies.verify"),
            "core.persistence.append_us_per_payment": us("core.persistence.append"),
            "core.persistence.records_per_payment": wal_records / confirmed,
            "core.persistence.wal_bytes_per_payment": counters["wal_bytes"]
            / loadgen.confirmed,
            "core.persistence.snapshot_ms_total": total_ms("core.persistence.snapshot"),
            "core.persistence.fingerprint_ms_total": total_ms(
                "core.persistence.fingerprint"
            ),
            "workloads.next_us_per_payment": us("workloads.next"),
            "loadgen.late_ms_p99": info["late_ms_p99"],
            "loadgen.lat_p95_ms": info["lat_p95_ms_pooled"],
            "loadgen.lat_p99_ms": info["lat_p99_ms_pooled"],
            "loadgen.payout_lat_p50_ms": (
                percentile(loadgen.untimed_latency, 0.5) * 1e3
                if loadgen.untimed_latency else 0.0
            ),
            "runtime.gc_full_ms": reading["gc_full_s"] * 1e3,
            "runtime.residual_us_per_payment": (reading["cpu_s"] - covered)
            / confirmed * 1e6,
            "trace.coverage": covered / reading["cpu_s"],
        }
    )
    if reference is not None:
        untraced = reference["cpu_s"] / reference["confirmed"] * 1e6
        values["trace.overhead_ratio"] = values["cpu_us_per_payment"] / untraced
        info["untraced_cpu_us_per_payment"] = untraced
    info["self_us_per_payment_by_layer"] = {
        family: round(seconds / confirmed * 1e6, 3)
        for family, seconds in sorted(family_self.items(), key=lambda kv: -kv[1])
    }

    # -- reconcile span counts with the program's own counters ----------
    # After the drain nothing is queued, so every frame ever encoded for
    # the wire was either written or evicted.
    queued = sum(t.queue_depth(dst) for t in transports for dst in t._queues)
    sent = sum(t.stats.frames_sent + t.stats.queue_dropped for t in transports)
    if counters["wire_frames"] != sent + queued:
        problems.append(
            f"trace: {counters['wire_frames']:.0f} wire encodes but "
            f"{sent} frames sent + {queued} queued (missed binding?)"
        )
    settled = sum(r.settled_count for r in cluster.replicas)
    if counters["settles"] != settled:
        problems.append(
            f"trace: {counters['settles']:.0f} settle spans but "
            f"{settled} settled (missed binding?)"
        )


def check_wal_records(tracer: Tracer, cluster: Any, problems: List[str]) -> None:
    """WAL append spans must equal the records on disk (stores closed)."""
    on_disk = 0
    for store in cluster.stores:
        records, _valid = WriteAheadLog(store.wal.path).scan()
        on_disk += len(records)
    appended = tracer.counters["wal_frames"]
    if appended != on_disk:
        problems.append(
            f"trace: {appended:.0f} WAL encodes but {on_disk} records on disk"
        )

"""Resident memory of the account-state layer.

``python -m repro.bench.memory`` builds a deployment's worth of replica
account states (default: 4 replicas sharing one
:class:`~repro.core.interning.ClientInterner`) over populations of
10⁵–10⁶ clients and reports allocated bytes per account of the
array-backed store (:class:`~repro.core.accounts.AccountState`, int64
slabs + interner, lazy sparse xlogs), then bytes per settled payment and
per certificate an Astro II representative holds pending.

Sizes come from :mod:`tracemalloc` — requested allocation sizes, not
RSS, so numbers are stable across machines and allocator behavior.
Results merge into ``BENCH_perf.json`` under ``"memory"``.

``--check-max-bytes`` turns the run into a CI regression gate: the
array store's bytes/account at every measured population must stay
under the given ceiling.
"""

from __future__ import annotations

import argparse
import tracemalloc
from sys import intern
from typing import Any, Dict, List, Optional, Sequence

from ..brb.batching import Batch
from ..core.accounts import AccountState
from ..core.dependencies import CreditMessage
from ..core.interning import ClientInterner
from ..core.payment import Payment, core_digests
from ..core.system import Astro2System
from ..transport.framing import decode_exactly_one, encode_frame
from ..workloads.uniform import uniform_genesis
from .report import merge_perf_report, print_table

__all__ = ["measure_bytes_per_account", "measure_bytes_per_payment",
           "measure_bytes_per_pending_certificate", "run_memory_cells",
           "main"]

#: Deployment size of the measured replica group (Astro's N = 3f+1
#: minimum); the interner is shared across the group, as in a system.
DEFAULT_REPLICAS = 4

DEFAULT_CLIENTS = (100_000, 1_000_000)


def measure_bytes_per_account(
    num_clients: int, num_replicas: int = DEFAULT_REPLICAS
) -> float:
    """Allocated bytes per account for one replica group.

    The genesis mapping itself is built *before* tracing starts: it is
    workload input, not account state.
    """
    genesis = uniform_genesis(num_clients)
    states: List[AccountState] = []
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        interner = ClientInterner(genesis)
        for _ in range(num_replicas):
            states.append(AccountState(genesis, interner=interner))
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (traced - base) / (num_clients * num_replicas)


def measure_bytes_per_payment() -> float:
    """Allocated bytes per payment a replica decodes from 512 frames of
    32 (pickled before tracing starts), digests and settles from the
    batch's columns, as a receiving replica does: what stays is each
    payment in its spender's xlog, 16 per account of 1024."""
    genesis = uniform_genesis(1024)
    ids, state = list(genesis), AccountState(genesis)
    frames = [encode_frame(Batch([
        Payment(ids[k % 1024], k // 1024 + 1, ids[(7 * k + 1) % 1024], 1)
        for k in range(start, start + 32)
    ])) for start in range(0, 16_384, 32)]
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for frame in frames:
            batch = decode_exactly_one(frame)
            batch.cached_digest
            batch.core_digests
            for core in batch.cores:
                state.try_settle_spend(state.index(core[0]), core)
        del batch, core
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (traced - base) / (32 * len(frames))


def measure_bytes_per_pending_certificate() -> float:
    """Allocated bytes per certificate one Astro II representative holds
    pending: CREDITs of 512 sub-batches of 32 payments to its clients,
    one frame from each of N = 4 settlers (pickled before tracing
    starts), decoded and fed to its ``_apply_credit``.  Genesis balances
    are ample, so nothing is attached: every certificate stays pending,
    as under ``live_uniform``, whose sequence numbers stay as small
    (≈ 141 payments per account)."""
    genesis = uniform_genesis(1024)
    system = Astro2System(num_replicas=4, genesis=genesis)
    representative = system.replicas[0]
    # Ids interned before tracing, as at a replica that has seen them.
    ids = list(map(intern, genesis))
    served = [c for c in ids if system.directory.rep_of(c) == 0]
    frames = []
    for start in range(0, 16_384, 32):
        flat = tuple([
            field for k in range(start, start + 32)
            for field in (ids[k % 1024], k // 1024 + 1,
                          served[(7 * k + 1) % len(served)], 1)
        ])
        digests = core_digests(flat)
        frames += [
            (replica.node_id, encode_frame(CreditMessage.from_cores(
                replica.key, replica.shard_id, flat, digests
            )))
            for replica in system.replicas
        ]
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for src, frame in frames:
            representative._apply_credit(src, decode_exactly_one(frame))
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pending = sum(len(refs) for refs in representative._deps.values()) // 2
    if pending != 16_384:
        raise RuntimeError(f"{pending} of 16384 certificates pending")
    return (traced - base) / pending


def run_memory_cells(
    clients: Sequence[int] = DEFAULT_CLIENTS,
    num_replicas: int = DEFAULT_REPLICAS,
) -> Dict[str, Any]:
    """Measure every population size; returns the report section."""
    cells = [
        {
            "num_clients": num_clients,
            "array_bytes_per_account": round(
                measure_bytes_per_account(num_clients, num_replicas), 1
            ),
        }
        for num_clients in clients
    ]
    return {
        "num_replicas": num_replicas,
        "cells": cells,
        "payment_bytes": round(measure_bytes_per_payment(), 1),
        "pending_certificate_bytes": round(
            measure_bytes_per_pending_certificate(), 1
        ),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.memory",
        description="Measure bytes/account of the account-state store.",
    )
    parser.add_argument(
        "--clients",
        default=",".join(str(c) for c in DEFAULT_CLIENTS),
        help="comma-separated population sizes (default: 100000,1000000)",
    )
    parser.add_argument(
        "--replicas", type=int, default=DEFAULT_REPLICAS,
        help="replicas per measured group (default: 4)",
    )
    parser.add_argument(
        "--check-max-bytes", type=float, default=None, metavar="BYTES",
        help="fail (exit 1) if the array store exceeds this many "
             "bytes/account at any measured population",
    )
    args = parser.parse_args(argv)
    clients = [int(c) for c in args.clients.split(",") if c.strip()]
    if not clients or any(c <= 0 for c in clients):
        parser.error(
            f"--clients must be positive integers; got {args.clients!r}"
        )

    section = run_memory_cells(clients, num_replicas=args.replicas)
    path = merge_perf_report({"memory": section})

    print_table(
        ["bytes per", "B"],
        [
            [f"account, {cell['num_clients']} clients",
             cell["array_bytes_per_account"]]
            for cell in section["cells"]
        ] + [
            ["settled decoded payment", section["payment_bytes"]],
            ["pending certificate (Astro II representative)",
             section["pending_certificate_bytes"]],
        ],
        title=f"Account-store memory ({args.replicas} replicas, "
              f"shared interner; report: {path})",
    )

    if args.check_max_bytes is not None:
        worst = max(
            cell["array_bytes_per_account"] for cell in section["cells"]
        )
        if worst > args.check_max_bytes:
            print(
                f"[memory] FAIL: array store uses {worst} bytes/account, "
                f"ceiling is {args.check_max_bytes}"
            )
            return 1
        print(
            f"[memory] OK: array store peaks at {worst} bytes/account "
            f"(ceiling {args.check_max_bytes})"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main())

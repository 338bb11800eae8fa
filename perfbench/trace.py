"""Span tracing from outside the program.

Nothing under ``src/`` knows about tracing.  :func:`install` wraps the
layers' public functions — class attributes, and for module-level
functions every importing module's own binding — *before* any system is
built, because constructors capture bound methods (``transport.on(...,
self._on_prepare)``, ``ProtocolEndpoint.send``).  A wrapper records one
span: name, start, end, and the span that was open when it started.

Spans live in parallel ``array`` columns (24 bytes each) and are written
out when the benchmark ends.  A layer's *self time* is its spans'
duration minus the part their direct children cover.  All wrapped
functions are synchronous and run on one asyncio loop thread, so the
open-span stack is exact; the one coroutine measured
(``TcpTransport._dial``) is timed apart from the stack.

Counts are taken at the same boundaries and reconciled with the
program's own counters by the runner, so a binding the wrappers missed
is an error rather than a silently small number.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "install", "LAYER_OF"]

clock = time.perf_counter

#: Raw spans written to the trace file; aggregates always cover all.
DUMP_SPAN_CAP = 200_000


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        #: span index -> request key ((origin, seq) or payment identifier).
        self.keys: Dict[int, Any] = {}
        self._stack: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def _id_of(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        observe: Optional[Callable[[int, tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """Return ``fn`` recording one span per call.

        ``observe(span_index, args, result)`` runs after a call that
        returned (counts, byte totals, request keys).
        """
        name_id = self._id_of(name)
        ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(index, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- patching ------------------------------------------------------
    def patch_attr(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_method(
        self,
        owner: type,
        attr: str,
        name: str,
        observe: Optional[Callable[[int, tuple, Any], None]] = None,
    ) -> None:
        self.patch_attr(owner, attr, self.wrap(name, owner.__dict__[attr], observe))

    def patch_property(self, owner: type, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        self.patch_attr(owner, attr, property(self.wrap(name, original.fget)))

    def patch_function(
        self,
        fn: Callable[..., Any],
        name_for_module: Callable[[str], str],
        observe_for_module: Optional[Callable[[str], Any]] = None,
    ) -> List[str]:
        """Rebind ``fn`` in every loaded ``repro`` module that holds it.

        ``from x import f`` copies the binding, so patching ``x.f`` alone
        would miss every importer.  Returns the modules rebound.
        """
        rebound = []
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    observe = (
                        observe_for_module(module_name)
                        if observe_for_module is not None else None
                    )
                    wrapped = self.wrap(name_for_module(module_name), fn, observe)
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, wrapped)
                    rebound.append(module_name)
        return rebound

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reading -------------------------------------------------------
    def aggregate(
        self, start: float = float("-inf"), end: float = float("inf")
    ) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self seconds of the spans that
        *started* inside ``[start, end)``."""
        starts, ends, parents, ids = self.start, self.end, self.parent, self.name_id
        total = len(starts)
        child_time = [0.0] * total
        for index in range(total):
            parent = parents[index]
            if parent >= 0:
                child_time[parent] += ends[index] - starts[index]
        out: Dict[str, Dict[str, float]] = {
            name: {"count": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        names = self.names
        for index in range(total):
            began = starts[index]
            if not start <= began < end:
                continue
            duration = ends[index] - began
            row = out[names[ids[index]]]
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[index]
        return out

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        """Write aggregates, samples' sizes and the first raw spans."""
        shown = min(len(self.start), DUMP_SPAN_CAP)
        spans = [
            {
                "name": self.names[self.name_id[index]],
                "start": self.start[index],
                "end": self.end[index],
                "parent": self.parent[index],
                **({"key": repr(self.keys[index])} if index in self.keys else {}),
            }
            for index in range(shown)
        ]
        document = {
            **extra,
            "span_count": len(self.start),
            "spans_truncated": shown < len(self.start),
            "aggregate": self.aggregate(),
            "counters": dict(self.counters),
            "spans": spans,
        }
        with open(path, "w") as handle:
            json.dump(document, handle)


#: Span name -> the per-layer metric family its self time is charged to.
LAYER_OF = {
    "transport.framing.encode": "transport.framing.encode",
    "transport.framing.encode_wal": "transport.framing.encode",
    "transport.framing.decode": "transport.framing.decode",
    "transport.tcp.send": "transport.tcp.send",
    "transport.tcp.write": "transport.tcp.send",
    "transport.tcp.dispatch": "transport.tcp.dispatch",
    "brb.batching.add": "brb.batching",
    "brb.batching.flush": "brb.batching",
    "brb.signed.broadcast": "brb.signed.handler",
    "brb.signed.on_prepare": "brb.signed.handler",
    "brb.signed.on_ack": "brb.signed.handler",
    "brb.signed.on_commit": "brb.signed.handler",
    "crypto.signatures.sign": "crypto.signatures",
    "crypto.signatures.verify": "crypto.signatures",
    "crypto.hashing.digest": "crypto.hashing.digest",
    "crypto.hashing.canonical": "crypto.hashing.digest",
    "crypto.hashing.batch_digest": "crypto.hashing.digest",
    "crypto.hashing.payment_digest": "crypto.hashing.digest",
    "crypto.hashing.subbatch_digest": "crypto.hashing.digest",
    "core.replica.ingest": "core.replica.ingest",
    "core.replica.flush_batch": "core.replica.ingest",
    "core.replica.deliver_batch": "core.replica.deliver",
    "core.replica.on_brb_deliver": "core.replica.deliver",
    "core.replica.settle": "core.replica.deliver",
    "core.replica.confirm": "core.replica.deliver",
    "core.accounts.try_settle_spend": "core.accounts.settle",
    "core.accounts.credit": "core.accounts.settle",
    "core.astro2.flush_credits": "core.astro2.credit",
    "core.astro2.on_credit": "core.astro2.credit",
    "core.astro2.apply_credit": "core.astro2.credit",
    "core.dependencies.add_credit": "core.astro2.credit",
    "core.dependencies.verify_certificate": "core.dependencies.verify",
    "core.persistence.append": "core.persistence.append",
    "core.persistence.snapshot": "core.persistence.snapshot",
    "core.persistence.fingerprint": "core.persistence.fingerprint",
    "workloads.next": "workloads.next",
    "loadgen.submit": "loadgen",
    "loadgen.on_confirm": "loadgen",
}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the live workloads cross.

    Must run after the ``repro`` modules are imported (so every
    ``from x import f`` binding exists to be rebound) and before any
    replica or transport is constructed.
    """
    from repro.brb.batching import Batch, Batcher
    from repro.brb.signed import SignedBroadcast
    from repro.core import dependencies, persistence
    from repro.core.accounts import AccountState
    from repro.core.astro2 import Astro2Replica
    from repro.core.payment import Payment
    from repro.core.replica import AstroReplicaBase
    from repro.crypto import hashing, signatures
    from repro.transport import framing
    from repro.transport.tcp import TcpTransport
    from repro.workloads.merchant import MerchantWorkload
    from repro.workloads.uniform import UniformWorkload

    from . import live

    counters, samples, keys = tracer.counters, tracer.samples, tracer.keys

    # -- transport.framing: one function, two jobs (wire and WAL) -------
    def encode_name(module_name: str) -> str:
        if module_name.endswith("persistence"):
            return "transport.framing.encode_wal"
        return "transport.framing.encode"

    def encode_observer(module_name: str) -> Callable[[int, tuple, Any], None]:
        prefix = "wal" if module_name.endswith("persistence") else "wire"

        def observe(index: int, args: tuple, frame: bytes) -> None:
            counters[prefix + "_frames"] += 1
            counters[prefix + "_bytes"] += len(frame)

        return observe

    rebound = tracer.patch_function(
        framing.encode_frame, encode_name, encode_observer
    )
    for needed in ("repro.transport.tcp", "repro.core.persistence"):
        if needed not in rebound:
            raise RuntimeError(f"trace: no encode_frame binding in {needed}")

    def observe_decode(index: int, args: tuple, payloads: list) -> None:
        counters["decoded_frames"] += len(payloads)
        counters["decoded_bytes"] += len(args[1])

    tracer.patch_method(
        framing.FrameDecoder, "feed", "transport.framing.decode", observe_decode
    )

    # -- transport.tcp ---------------------------------------------------
    tracer.patch_method(TcpTransport, "send", "transport.tcp.send")
    tracer.patch_method(TcpTransport, "_dispatch", "transport.tcp.dispatch")
    tracer.patch_method(asyncio.StreamWriter, "write", "transport.tcp.write")
    dial = TcpTransport.__dict__["_dial"]

    async def timed_dial(self: TcpTransport, dst: int) -> Any:
        began = clock()
        writer = await dial(self, dst)
        samples["handshake_s"].append(clock() - began)
        return writer

    tracer.patch_attr(TcpTransport, "_dial", timed_dial)

    # -- brb.batching: how long each payment waited for its batch --------
    added_at: Dict[int, List[float]] = defaultdict(list)
    batcher_add = tracer.wrap("brb.batching.add", Batcher.__dict__["add"])
    batcher_flush = tracer.wrap("brb.batching.flush", Batcher.__dict__["flush"])

    def add(self: Batcher, item: Any) -> None:
        added_at[id(self)].append(clock())
        batcher_add(self, item)

    def flush(self: Batcher) -> None:
        times = added_at.pop(id(self), None)
        if times:
            now = clock()
            samples["batch_wait_s"].extend(now - t for t in times)
            samples["batch_size"].append(len(times))
        batcher_flush(self)

    tracer.patch_attr(Batcher, "add", add)
    tracer.patch_attr(Batcher, "flush", flush)

    # -- brb.signed: handlers, and the round from broadcast to delivery --
    round_began: Dict[Tuple[int, int], float] = {}

    def observe_broadcast(index: int, args: tuple, result: Any) -> None:
        key = (args[0].node.node_id, args[1])
        keys[index] = key
        round_began[key] = tracer.start[index]

    def observe_deliver(index: int, args: tuple, result: Any) -> None:
        replica, origin, seq = args[0], args[1], args[2]
        keys[index] = (origin, seq)
        if origin == replica.node_id:
            began = round_began.pop((origin, seq), None)
            if began is not None:
                samples["brb_round_s"].append(tracer.start[index] - began)

    tracer.patch_method(
        SignedBroadcast, "broadcast", "brb.signed.broadcast", observe_broadcast
    )
    for attr in ("_on_prepare", "_on_ack", "_on_commit"):
        tracer.patch_method(SignedBroadcast, attr, "brb.signed." + attr[1:])

    # -- crypto ----------------------------------------------------------
    for fn in (signatures.sign, signatures.verify):
        rebound = tracer.patch_function(
            fn, lambda _m, n=fn.__name__: "crypto.signatures." + n
        )
        if "repro.brb.signed" not in rebound:
            raise RuntimeError(f"trace: no {fn.__name__} binding in brb.signed")
    for fn in (hashing.digest, hashing.canonical):
        tracer.patch_function(
            fn, lambda _m, n=fn.__name__: "crypto.hashing." + n
        )
    tracer.patch_function(
        dependencies.subbatch_digest_of, lambda _m: "crypto.hashing.subbatch_digest"
    )
    tracer.patch_property(Batch, "cached_digest", "crypto.hashing.batch_digest")
    tracer.patch_property(Payment, "cached_digest", "crypto.hashing.payment_digest")

    # -- core.replica / core.astro2 / core.accounts ----------------------
    def observe_payment(index: int, args: tuple, result: Any) -> None:
        keys[index] = args[1].identifier

    tracer.patch_method(
        AstroReplicaBase, "ingest", "core.replica.ingest", observe_payment
    )
    tracer.patch_method(
        AstroReplicaBase, "_confirm", "core.replica.confirm", observe_payment
    )
    tracer.patch_method(AstroReplicaBase, "_flush_batch", "core.replica.flush_batch")
    tracer.patch_method(
        AstroReplicaBase, "_deliver_batch", "core.replica.deliver_batch"
    )
    tracer.patch_method(
        Astro2Replica, "_on_brb_deliver", "core.replica.on_brb_deliver",
        observe_deliver,
    )
    tracer.patch_method(Astro2Replica, "_settle", "core.replica.settle")
    tracer.patch_method(Astro2Replica, "_flush_credits", "core.astro2.flush_credits")
    tracer.patch_method(Astro2Replica, "_on_credit", "core.astro2.on_credit")
    tracer.patch_method(Astro2Replica, "_on_credit_bundle", "core.astro2.on_credit")
    tracer.patch_method(Astro2Replica, "_apply_credit", "core.astro2.apply_credit")
    tracer.patch_method(Astro2Replica, "_snapshot_data", "core.persistence.snapshot")

    def observe_settle(index: int, args: tuple, settled: bool) -> None:
        if settled:
            counters["settles"] += 1

    tracer.patch_method(
        AccountState, "try_settle_spend", "core.accounts.try_settle_spend",
        observe_settle,
    )
    tracer.patch_method(AccountState, "credit", "core.accounts.credit")

    # -- core.dependencies -----------------------------------------------
    def observe_add_credit(index: int, args: tuple, certs: list) -> None:
        counters["credits"] += 1
        counters["certs_minted"] += len(certs)

    tracer.patch_method(
        dependencies.DependencyCollector, "add_credit",
        "core.dependencies.add_credit", observe_add_credit,
    )
    rebound = tracer.patch_function(
        dependencies.verify_certificate,
        lambda _m: "core.dependencies.verify_certificate",
    )
    if "repro.core.astro2" not in rebound:
        raise RuntimeError("trace: no verify_certificate binding in core.astro2")

    # -- core.persistence ------------------------------------------------
    tracer.patch_method(
        persistence.WriteAheadLog, "append", "core.persistence.append"
    )
    tracer.patch_method(
        persistence.ReplicaStore, "write_snapshot", "core.persistence.snapshot"
    )
    rebound = tracer.patch_function(
        persistence.state_fingerprint, lambda _m: "core.persistence.fingerprint"
    )
    if "repro.core.replica" not in rebound:
        raise RuntimeError("trace: no state_fingerprint binding in core.replica")

    # -- the benchmark's own side: workload draws and the load generator -
    tracer.patch_method(UniformWorkload, "next", "workloads.next")
    tracer.patch_method(MerchantWorkload, "next", "workloads.next")
    tracer.patch_method(live.LoadGen, "submit", "loadgen.submit")
    tracer.patch_method(live.LoadGen, "on_confirm", "loadgen.on_confirm")

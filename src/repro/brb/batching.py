"""Payment batching for the broadcast layer (§VI-A).

Both Astro variants batch at the level of the broadcast protocol: the
replica sending a PREPARE assembles a batch of payments — potentially from
different clients — to amortize authentication and network overheads.
Astro II adds a second level: payments inside a batch are segregated into
*sub-batches* by the representative replica of their beneficiary, so one
CREDIT signature covers a whole sub-batch.

The paper's configuration signs one batch of up to 256 payments (§VI-A);
:data:`DEFAULT_BATCH_SIZE` matches that.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Dict, Generic, Hashable, List, Optional, Sequence, Tuple, TypeVar

from ..crypto import costs
from ..crypto.hashing import Digest
from ..transport.interface import Clock, TimerHandle

__all__ = ["Batch", "Batcher", "KeyedCoalescer",
           "DEFAULT_BATCH_SIZE", "DEFAULT_BATCH_DELAY"]

#: Paper's batch size: one signature per 256 payments (§VI-A).
DEFAULT_BATCH_SIZE = 256

#: Maximum time a payment waits for its batch to fill before the batch is
#: flushed anyway.  Keeps latency bounded at low load.
DEFAULT_BATCH_DELAY = 0.01

T = TypeVar("T")

_MASK = 0xFFFFFFFFFFFFFFFF


class Batch:
    """An immutable batch of payments broadcast as one BRB payload.

    Held as columns only: ``flat``, the core fields in order (four per
    payment, client ids interned), ``cores`` (one ``(spender, seq,
    beneficiary, amount)`` per payment), ``extras`` (``position ->
    deps``, for the payments that carry dependency certificates) and, on
    first read, ``identifiers`` and ``core_digests``.  ``Batch(payments)``
    packs its payments and keeps none of them; it and a batch decoded
    from a frame or a WAL record derive the rest from the packed columns
    alike.  In the simulator a batch's N receivers share one object, and
    so its columns.  :meth:`payment` and iteration build a ``Payment``
    from the columns on every read.
    """

    __slots__ = ("flat", "cores", "extras", "batch_items", "size_bytes",
                 "_identifiers", "_core_digests", "_digest")

    def __init__(self, payments: Sequence[Any]) -> None:
        flat, extras = pack_payments(payments)
        self._columns(flat, dict(extras))

    def _columns(self, flat: tuple, extras: Dict[int, tuple]) -> None:
        if not flat:
            raise ValueError("a batch must contain at least one payment")
        fields = iter(flat)
        cores = tuple(zip(fields, fields, fields, fields))
        self.flat, self.cores, self.extras = flat, cores, extras
        self.batch_items = len(cores)
        self.size_bytes = costs.PAYMENT_BYTES * self.batch_items + sum([
            getattr(dep, "wire_bytes", 0)
            for deps in extras.values() for dep in deps
        ])
        self._identifiers = self._core_digests = self._digest = None

    def payment(self, position: int) -> Any:
        """The payment at ``position``, built from the columns."""
        return Payment(*self.cores[position], self.extras.get(position, ()))

    @property
    def identifiers(self) -> List[Tuple[Any, int]]:
        """Every payment's ``Payment.identifier`` (the ACK guard's keys)."""
        if self._identifiers is None:
            self._identifiers = list(zip(self.flat[0::4], self.flat[1::4]))
        return self._identifiers

    @property
    def core_digests(self) -> List[int]:
        """Every payment's ``Payment.core_digest`` (CREDIT sub-batches)."""
        if self._core_digests is None:
            self._core_digests = core_digests(self.flat)
        return self._core_digests

    @property
    def cached_digest(self) -> Digest:
        """Digest of the batch content, computed once per object: of the
        payments' full-content digests (``Payment.cached_digest``, from the
        columns), which match iff the content does.  Sound because batches
        are immutable: an equivocating broadcaster necessarily creates
        distinct objects for its distinct payloads."""
        value = self._digest
        if value is None:
            parts = list(map(_MASK.__and__, map(hash, zip(
                repeat("payment"), map(tuple.__add__, self.cores, repeat(((),)))
            ))))
            for position, deps in self.extras.items():
                if deps:
                    parts[position] = self.payment(position).cached_digest
            value = self._digest = hash(("batch", tuple(parts))) & _MASK
        return value

    def __reduce__(self):
        # Cross-process form (TCP framing, WAL): the columns, laid out as
        # ``pack_payments``; the rest is derived on arrival.
        return (_batch_from_wire, (self.flat, tuple(self.extras.items())))

    def __iter__(self):
        return map(self.payment, range(self.batch_items))

    def __len__(self) -> int:
        return self.batch_items

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Batch n={self.batch_items}>"


def _batch_from_wire(flat: tuple, extras: tuple) -> Batch:
    """Inverse of :meth:`Batch.__reduce__`, building no ``Payment``; bad
    columns raise ``ValueError``, which framing makes ``FrameError``."""
    batch = Batch.__new__(Batch)
    batch._columns(*checked_cores(flat, extras))
    return batch


class Batcher(Generic[T]):
    """Accumulates items and flushes them as batches.

    Flushes when ``max_size`` items accumulate or ``max_delay`` elapses
    since the first pending item, whichever comes first.  ``flush_fn``
    receives the list of items.
    """

    def __init__(
        self,
        clock: Clock,
        flush_fn: Callable[[List[T]], None],
        max_size: int = DEFAULT_BATCH_SIZE,
        max_delay: float = DEFAULT_BATCH_DELAY,
    ) -> None:
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.clock = clock
        self.flush_fn = flush_fn
        self.max_size = max_size
        self.max_delay = max_delay
        self._pending: List[T] = []
        self._timer: Optional[TimerHandle] = None
        self.batches_flushed = 0

    def add(self, item: T) -> None:
        self._pending.append(item)
        if len(self._pending) >= self.max_size:
            self.flush()
        elif self._timer is None:
            self._timer = self.clock.schedule(self.max_delay, self._on_timer)

    def add_many(self, items: Sequence[T]) -> None:
        for item in items:
            self.add(item)

    def _on_timer(self) -> None:
        self._timer = None
        if self._pending:
            self.flush()

    def flush(self) -> None:
        """Flush pending items immediately (no-op when empty)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        items, self._pending = self._pending, []
        self.batches_flushed += 1
        self.flush_fn(items)

    @property
    def pending_count(self) -> int:
        return len(self._pending)


class KeyedCoalescer(Generic[T]):
    """Per-key :class:`Batcher`: one independent time/size window per key.

    Items accumulate in per-key buckets; a key's bucket is flushed as one
    group when its accumulated weight reaches ``max_size`` or ``max_delay``
    after the key's *first* pending item, whichever comes first.
    ``flush_fn`` receives ``(key, items)``.  ``weight_fn`` maps an item to
    its weight against ``max_size`` (default: every item weighs 1) — Astro
    II's CREDIT transport windows weigh a buffered sub-batch by its
    payment count, so the size cap bounds wire bytes, not message count.

    This is the keyed generalization of :class:`Batcher` (Astro II's
    cross-delivery CREDIT coalescing keys buckets by beneficiary
    representative).  :class:`Batcher` itself stays a separate class: its
    single-bucket ``add`` sits on the per-payment ingest hot path and its
    timer/sequence-number discipline is pinned byte-for-byte by the
    golden-history determinism tests.

    Buckets live in an insertion-ordered dict and timers are per key, so
    flush order is a pure function of arrival order — never of hash-seed-
    dependent set/dict internals (string keys would otherwise order
    flushes by ``PYTHONHASHSEED``).
    """

    __slots__ = ("clock", "flush_fn", "max_size", "max_delay", "weight_fn",
                 "_pending", "_weights", "_timers", "flushes",
                 "items_coalesced")

    def __init__(
        self,
        clock: Clock,
        flush_fn: Callable[[Hashable, List[T]], None],
        max_size: int = DEFAULT_BATCH_SIZE,
        max_delay: float = DEFAULT_BATCH_DELAY,
        weight_fn: Optional[Callable[[T], int]] = None,
    ) -> None:
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.clock = clock
        self.flush_fn = flush_fn
        self.max_size = max_size
        self.max_delay = max_delay
        self.weight_fn = weight_fn
        self._pending: Dict[Hashable, List[T]] = {}
        self._weights: Dict[Hashable, int] = {}
        self._timers: Dict[Hashable, TimerHandle] = {}
        self.flushes = 0
        self.items_coalesced = 0

    def add(self, key: Hashable, item: T) -> None:
        weight = 1 if self.weight_fn is None else self.weight_fn(item)
        bucket = self._pending.get(key)
        if bucket is None:
            self._pending[key] = [item]
            self._weights[key] = weight
            if weight >= self.max_size:
                self.flush_key(key)
                return
            self._timers[key] = self.clock.schedule(
                self.max_delay, self._on_timer, key
            )
            return
        bucket.append(item)
        total = self._weights[key] + weight
        self._weights[key] = total
        if total >= self.max_size:
            self.flush_key(key)

    def _on_timer(self, key: Hashable) -> None:
        self._timers.pop(key, None)
        if key in self._pending:
            self.flush_key(key)

    def flush_key(self, key: Hashable) -> None:
        """Flush one key's bucket immediately (no-op when empty)."""
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        items = self._pending.pop(key, None)
        self._weights.pop(key, None)
        if not items:
            return
        self.flushes += 1
        self.items_coalesced += len(items)
        self.flush_fn(key, items)

    @property
    def pending_count(self) -> int:
        return sum(len(bucket) for bucket in self._pending.values())


# Bound last: ``core.payment`` needs nothing from here, but importing it
# runs ``repro.core``'s package init, whose replicas import this module.
from ..core.payment import (  # noqa: E402
    Payment,
    checked_cores,
    core_digests,
    pack_payments,
)

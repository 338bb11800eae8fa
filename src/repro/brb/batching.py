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

from typing import Any, Callable, Dict, Generic, Hashable, List, Optional, Sequence, Tuple, TypeVar

from ..crypto import costs
from ..crypto.hashing import Digest, digest
from ..transport.interface import Clock, TimerHandle

__all__ = ["Batch", "Batcher", "KeyedCoalescer",
           "DEFAULT_BATCH_SIZE", "DEFAULT_BATCH_DELAY"]

#: Paper's batch size: one signature per 256 payments (§VI-A).
DEFAULT_BATCH_SIZE = 256

#: Maximum time a payment waits for its batch to fill before the batch is
#: flushed anyway.  Keeps latency bounded at low load.
DEFAULT_BATCH_DELAY = 0.01

T = TypeVar("T")


class Batch:
    """An immutable batch of payments broadcast as one BRB payload."""

    __slots__ = ("items", "batch_items", "size_bytes", "_digest")

    def __init__(self, items: Sequence[Any]) -> None:
        if not items:
            raise ValueError("a batch must contain at least one payment")
        self.items: Tuple[Any, ...] = tuple(items)
        self.batch_items = len(self.items)
        size = 0
        for item in self.items:
            size += getattr(item, "wire_bytes", costs.PAYMENT_BYTES)
        self.size_bytes = size
        self._digest: Optional[Digest] = None

    @property
    def cached_digest(self) -> Digest:
        """Digest of the batch content, computed once per object.

        Derived from the items' own memoized digests: two batches carry
        equal content iff their item digest sequences match, which is the
        same collision-freedom guarantee ``digest`` gives directly.
        Caching per object is sound because batches are immutable: an
        equivocating broadcaster necessarily creates distinct objects for
        its distinct payloads.
        """
        value = self._digest
        if value is None:
            try:
                parts = tuple([item.cached_digest for item in self.items])
            except AttributeError:
                parts = tuple([digest(item) for item in self.items])
            value = self._digest = hash(("batch", parts)) & 0xFFFFFFFFFFFFFFFF
        return value

    def __reduce__(self):
        # Cross-process form (TCP framing, WAL): the items as one flat
        # tuple of core fields; sizes and memoized digests are recomputed
        # on arrival.  Imported here because ``core`` imports this module.
        from ..core.payment import pack_payments

        return (_batch_from_wire, pack_payments(self.items))

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return self.batch_items

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Batch n={self.batch_items}>"


def _batch_from_wire(flat: tuple, extras: tuple) -> Batch:
    """Inverse of :meth:`Batch.__reduce__`; malformed columns raise
    ``ValueError``, which the frame decoder turns into ``FrameError``."""
    from ..core.payment import unpack_payments

    return Batch(unpack_payments(flat, extras))


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

    def add_many(self, key: Hashable, items: Sequence[T]) -> None:
        for item in items:
            self.add(key, item)

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


"""Byzantine reliable broadcast (BRB) interface.

Astro's replication layer is a BRB primitive with the properties of §IV
(inspired by [59]), stated over payloads carrying an *identifier*
``(origin, seq)``:

* **Agreement** — if a correct replica delivers payload ``a`` with
  identifier ``(s, n)``, no correct replica delivers ``a' != a`` with the
  same identifier.
* **Integrity** — a correct replica delivers a payload at most once, and
  only if it was broadcast by some replica.
* **Reliability** — if the broadcaster is correct, all correct replicas
  eventually deliver.
* **Totality** *(optional)* — if any correct replica delivers, every
  correct replica eventually delivers.  Bracha's protocol provides it;
  the signed protocol does not (Astro II compensates with dependency
  certificates, §IV-A).

Quorums are over *members*: an endpoint's peer set (for Bracha, its
installed view's members).  A message from a non-member is dropped on
arrival and a certificate signer who is not a member does not count, so
f Byzantine members plus any number of outsiders cannot make a correct
member deliver what no member broadcast.

The layer owns Integrity, across a crash too: its
:class:`DeliveryFrontier` is the one record of what this replica has
delivered — live, replayed from its write-ahead log, or imported from a
peer's (:meth:`BroadcastLayer.deliver_out_of_band`) — and what its
checkpoint and catch-up requests carry.  Per-identifier protocol state is
transient: an instance retires once nothing can change what it sends or
delivers, and a message for a delivered identifier is dropped before any
state is created for it.

Concrete implementations: :class:`~repro.brb.bracha.BrachaBroadcast`
(Astro I, and DBRB across views) and
:class:`~repro.brb.signed.SignedBroadcast` (Astro II).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, Optional, Set, Tuple

from ..crypto.hashing import Digest, digest

__all__ = ["BroadcastLayer", "DeliverFn", "DeliveryFrontier", "Identifier"]

#: BRB payload identifier: (origin, sequence-number).
Identifier = Tuple[Hashable, int]

#: Delivery callback: ``deliver(origin, seq, payload)``.
DeliverFn = Callable[[Hashable, int, Any], None]


def _payload_items(payload: Any) -> int:
    """Number of hashable items in a payload (1 for non-batches)."""
    return getattr(payload, "batch_items", 1)


def _payload_digest(payload: Any) -> Digest:
    """Payload digest, using the payload's cached value when available."""
    cached = getattr(payload, "cached_digest", None)
    if cached is not None:
        return cached
    return digest(payload)


class DeliveryFrontier:
    """The identifiers delivered so far: per origin, the highest ``seq``
    below which every sequence number is delivered, plus the identifiers
    delivered above it.  With FIFO broadcasters ``extra`` stays small."""

    __slots__ = ("front", "extra")

    def __init__(
        self,
        front: Optional[Dict[Hashable, int]] = None,
        extra: Iterable[Identifier] = (),
    ) -> None:
        self.front: Dict[Hashable, int] = dict(front or {})
        self.extra: Set[Identifier] = set(extra)

    def __contains__(self, key: Identifier) -> bool:
        return key[1] <= self.front.get(key[0], 0) or key in self.extra

    def add(self, origin: Hashable, seq: int) -> bool:
        """Record ``(origin, seq)`` as delivered; ``False`` if it was."""
        front = self.front.get(origin, 0)
        extra = self.extra
        if seq <= front or (origin, seq) in extra:
            return False
        if seq != front + 1:
            extra.add((origin, seq))
            return True
        while (origin, seq + 1) in extra:
            seq += 1
            extra.discard((origin, seq))
        self.front[origin] = seq
        return True

    def capture(self) -> Tuple[Dict[Hashable, int], Tuple[Identifier, ...]]:
        """``(front, extra)`` as plain values, ``extra`` sorted: what a
        checkpoint stores and a catch-up request carries."""
        return dict(self.front), tuple(sorted(self.extra))


class BroadcastLayer:
    """Abstract BRB endpoint living on one replica.

    Instances are per-replica; ``broadcast`` reliably sends a payload under
    this replica's identity, and the constructor-supplied deliver callback
    fires exactly once per delivered identifier.
    """

    #: The implementation's per-identifier protocol state.
    _instance_type: Callable[[], Any]

    def __init__(self, deliver: DeliverFn) -> None:
        self.deliver_fn = deliver
        #: Everything delivered, by any path.
        self.delivered = DeliveryFrontier()
        #: Protocol state of identifiers not retired yet.
        self._instances: Dict[Identifier, Any] = {}
        self._delivered_count = 0

    def broadcast(self, seq: int, payload: Any, payload_bytes: int) -> None:
        """Reliably broadcast ``payload`` as this replica's ``seq``-th message.

        ``seq`` must increase by 1 per broadcast from the same origin
        (FIFO identifiers); ``payload_bytes`` sizes the wire message for
        the resource model.
        """
        raise NotImplementedError

    @property
    def delivered_count(self) -> int:
        """Deliveries the protocol itself produced (not out-of-band)."""
        return self._delivered_count

    def deliver_out_of_band(self, origin: int, seq: int, payload: Any) -> bool:
        """Deliver a payload whose quorum this replica did not witness:
        WAL replay, or a batch imported from a peer's WAL.

        ``False`` (and nothing happens) when the identifier is already
        delivered.  Otherwise it is recorded *before* the callback runs,
        like a live delivery, so a checkpoint the callback writes covers
        it; its instance retires, and late frames for it are dropped.
        """
        if not self.delivered.add(origin, seq):
            return False
        self._instances.pop((origin, seq), None)
        self.deliver_fn(origin, seq, payload)
        return True

    def _instance(self, key: Identifier) -> Any:
        """The live instance for ``key``, created on first sight;
        ``None`` once ``key`` is delivered."""
        instance = self._instances.get(key)
        if instance is None and key not in self.delivered:
            instance = self._instances[key] = self._instance_type()
        return instance

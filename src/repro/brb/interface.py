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

Concrete implementations: :class:`~repro.brb.bracha.BrachaBroadcast`
(Astro I) and :class:`~repro.brb.signed.SignedBroadcast` (Astro II).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Tuple

from ..crypto.hashing import Digest, digest

__all__ = ["BroadcastLayer", "DeliverFn", "Identifier"]

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


class BroadcastLayer:
    """Abstract BRB endpoint living on one replica.

    Instances are per-replica; ``broadcast`` reliably sends a payload under
    this replica's identity, and the constructor-supplied deliver callback
    fires exactly once per delivered identifier.
    """

    #: Whether this implementation provides the totality property.
    provides_totality: bool = False

    def broadcast(self, seq: int, payload: Any, payload_bytes: int) -> None:
        """Reliably broadcast ``payload`` as this replica's ``seq``-th message.

        ``seq`` must increase by 1 per broadcast from the same origin
        (FIFO identifiers); ``payload_bytes`` sizes the wire message for
        the resource model.
        """
        raise NotImplementedError

    @property
    def delivered_count(self) -> int:
        raise NotImplementedError

"""Astro I — the echo-based variant (§IV-A).

Uses Bracha's BRB (MAC-authenticated, O(N²) messages, totality) and the
plain payment protocol of Listings 1–4: settling credits the beneficiary
directly, and insufficiently funded payments are *queued*, never rejected
("Astro I does not reject insufficiently funded transactions ... it queues
them until enough funds arrive", §IV-A Comparison).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..brb.batching import Batch
from ..brb.bracha import BrachaBroadcast
from ..transport.interface import Transport
from .config import AstroConfig
from .directory import Directory
from .interning import ClientInterner
from .payment import ClientId, Payment
from .replica import WAIT, AstroReplicaBase

__all__ = ["Astro1Replica"]


class Astro1Replica(AstroReplicaBase):
    """One Astro I replica: Bracha BRB + full-settle payment protocol."""

    def __init__(
        self,
        transport: Transport,
        config: AstroConfig,
        genesis: Dict[ClientId, int],
        directory: Directory,
        peers: List[int],
        interner: Optional[ClientInterner] = None,
    ) -> None:
        super().__init__(transport, config, genesis, directory, interner)
        self.brb = BrachaBroadcast(
            transport, peers, self._on_brb_deliver, f=config.f
        )

    # ------------------------------------------------------------------
    # Variant hooks
    # ------------------------------------------------------------------
    def _do_broadcast(self, seq: int, batch: Batch) -> None:
        self.brb.broadcast(seq, batch, batch.size_bytes)

    def _on_brb_deliver(self, origin: int, seq: int, batch: Batch) -> None:
        if self._wal is None:
            self._deliver_batch(origin, batch)
            return
        self._wal_deliver(origin, seq, batch)
        self._deliver_batch(origin, batch)
        self._wal_checkpoint()

    def _settle(self, payment: Payment) -> Any:
        # Criterion (2) of Listing 3: the balance must cover the amount.
        # When it does not, the payment stays queued; a later settle
        # crediting this client re-runs the check (totality of Bracha's
        # BRB guarantees the credit eventually arrives).
        state = self.state
        spender = payment.spender
        if state.balance(spender) < payment.amount:
            return WAIT
        # Listing 4: withdraw, deposit, bump sn, append to the xlog.
        # settle_full works directly on the int64 slabs — two interner
        # lookups plus C array ops per payment, no per-client PyObjects.
        state.settle_full(payment)
        self.settled_count += 1
        if self._rep_map.get(spender) == self.node_id:
            self._confirm(payment)
        return payment.beneficiary

    @property
    def held_payments(self) -> int:
        """Its own clients' payments queued for funds: what Astro II,
        which waits before it broadcasts, calls *held*."""
        return sum(
            len(queue) for client, queue in self._awaiting_seq.items()
            if self._rep_map.get(client) == self.node_id
        )

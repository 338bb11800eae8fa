"""Astro I — the echo-based variant (§IV-A).

Uses Bracha's BRB (MAC-authenticated, O(N²) messages, totality) and the
plain payment protocol of Listings 1–4: settling credits the beneficiary
directly, and insufficiently funded payments are *queued*, never rejected
("Astro I does not reject insufficiently funded transactions ... it queues
them until enough funds arrive", §IV-A Comparison).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..brb.batching import Batch
from ..brb.bracha import BrachaBroadcast
from ..transport.interface import Transport
from .config import AstroConfig
from .directory import Directory
from .interning import ClientInterner
from .payment import ClientId
from .replica import AstroReplicaBase

__all__ = ["Astro1Replica"]


class Astro1Replica(AstroReplicaBase):
    """One Astro I replica: Bracha BRB + full-settle payment protocol.

    It settles with :meth:`ApprovalQueue._settle`, the consensus ledger's
    loop too: an underfunded payment waits, and a settle that credits
    its spender re-runs the check (totality of Bracha's BRB guarantees
    the credit eventually arrives).
    """

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

    @property
    def held_payments(self) -> int:
        """Its own clients' payments queued for funds: what Astro II,
        which waits before it broadcasts, calls *held*."""
        return sum(
            len(queue) for client, queue in self._awaiting_seq.items()
            if self._rep_map.get(client) == self.node_id
        )

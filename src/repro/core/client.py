"""Client-side logic (Listing 1).

A client holds her own sequence counter, creates payments, and submits
them to her representative over an authenticated channel.  Clients are
deliberately lightweight: they keep no replicated state and connect to a
single replica (unlike the consensus baseline, whose clients connect to
all replicas — §VI-B).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..crypto import costs
from ..sim.events import Simulator
from ..sim.network import Network
from ..sim.node import Node
from .messages import ClientConfirm, ClientSubmit
from .payment import ClientId, Payment

__all__ = ["ClientNode"]

#: Called on confirmation: ``fn(payment, latency_seconds)``.
ConfirmCallback = Callable[[Payment, float], None]


class ClientNode(Node):
    """A client running as a simulated process.

    Implements Listing 1: ``pay`` assembles the payment, increments the
    local sequence number, and sends it to the representative.  On
    settlement the representative answers with a confirmation, from which
    end-to-end latency is measured.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        client_id: ClientId,
        network: Network,
        representative: int,
        on_confirm: Optional[ConfirmCallback] = None,
    ) -> None:
        super().__init__(sim, node_id, network)
        self.client_id = client_id
        self.representative = representative
        self.on_confirm = on_confirm
        self._next_seq = 1
        self._submit_times: Dict[int, float] = {}
        self.confirmed_count = 0
        self.on(ClientConfirm, self._on_confirm_msg)

    def pay(self, beneficiary: ClientId, amount: int) -> Payment:
        """Create and submit the next payment (Listing 1)."""
        payment = Payment(self.client_id, self._next_seq, beneficiary, amount)
        self._next_seq += 1
        self._submit_times[payment.seq] = self.sim.now
        self.send(
            self.representative,
            ClientSubmit(payment),
            size=costs.PAYMENT_BYTES,
            recv_cost=costs.INGEST_PER_REQUEST,
        )
        return payment

    def _on_confirm_msg(self, src: int, message: ClientConfirm) -> None:
        submitted = self._submit_times.pop(message.payment.seq, None)
        if submitted is None:
            return
        self.confirmed_count += 1
        if self.on_confirm is not None:
            self.on_confirm(message.payment, self.sim.now - submitted)

    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def in_flight(self) -> int:
        """Submitted payments not yet confirmed."""
        return len(self._submit_times)

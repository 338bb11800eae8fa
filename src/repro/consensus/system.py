"""Assembly of the consensus-based payment system (baseline).

A :class:`~repro.core.system.SimulatedSystem` like the Astro systems —
same simulator/network/fault/genesis scaffold, same driving surface, so
workloads and benchmarks are generic over the two designs — that keeps
what the BFT-SMaRt client pattern needs: every request reaches every
replica, and a client accepts a result after f+1 matching replies
(§VI-B).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..core.interning import ClientInterner
from ..core.payment import ClientId, Payment, PaymentId
from ..core.system import SimulatedSystem
from ..crypto import costs
from ..sim.events import Simulator
from ..sim.latency import LatencyModel
from ..sim.network import Network
from ..sim.node import Node
from .config import BftConfig
from .messages import ClientRequest, Reply
from .replica import BftReplica

__all__ = ["BftSystem", "BftClientNode"]

ConfirmHook = Callable[[Payment, float], None]


class BftClientNode(Node):
    """A closed-loop client of the consensus system.

    Sends each request to all replicas and confirms on f+1 matching
    replies — the BFT-SMaRt client behaviour the paper deploys.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        client_id: ClientId,
        network: Network,
        system: "BftSystem",
        on_confirm: Optional[ConfirmHook] = None,
    ) -> None:
        super().__init__(sim, node_id, network)
        self.client_id = client_id
        self.system = system
        self.on_confirm = on_confirm
        self._next_seq = 1
        self._in_flight: Dict[PaymentId, Tuple[Payment, float]] = {}
        self._reply_counts: Dict[PaymentId, int] = {}
        self.confirmed_count = 0
        self.on(Reply, self._on_reply)

    def pay(self, beneficiary: ClientId, amount: int) -> Payment:
        payment = Payment(
            self.client_id, self._next_seq, beneficiary, amount,
            submitted_at=self.sim.now,
        )
        self._next_seq += 1
        self._in_flight[payment.identifier] = (payment, self.sim.now)
        request = ClientRequest(payment)
        cost = costs.BFT_REQUEST * costs.BFT_OVERHEAD_FACTOR
        for replica in self.system.replicas:
            self.send(
                replica.node_id, request, size=costs.PAYMENT_BYTES,
                recv_cost=cost,
            )
        return payment

    def _on_reply(self, src: int, message: Reply) -> None:
        key = message.payment_id
        entry = self._in_flight.get(key)
        if entry is None:
            return
        count = self._reply_counts.get(key, 0) + 1
        self._reply_counts[key] = count
        if count >= self.system.config.f + 1:
            payment, submitted = entry
            del self._in_flight[key]
            del self._reply_counts[key]
            self.confirmed_count += 1
            if self.on_confirm is not None:
                self.on_confirm(payment, self.sim.now - submitted)

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)


class BftSystem(SimulatedSystem):
    """N-replica consensus-based payment service."""

    replicas: List[BftReplica]

    def __init__(
        self,
        num_replicas: int = 4,
        genesis: Optional[Mapping[ClientId, int]] = None,
        config: Optional[BftConfig] = None,
        sim: Optional[Simulator] = None,
        network: Optional[Network] = None,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        track_kinds: bool = False,
    ) -> None:
        if config is None:
            config = BftConfig(num_replicas=num_replicas)
        super().__init__(
            genesis or {}, config, config.num_replicas, sim, network, latency,
            seed, track_kinds,
        )
        peers = list(range(config.num_replicas))
        # One ClientId ⇄ index interner for all replicas: their account
        # slabs share the per-client mapping cost.
        interner = ClientInterner(self.genesis)
        self.replicas.extend(
            BftReplica(Node(self.sim, node_id, self.network), config,
                       dict(self.genesis), peers, interner=interner)
            for node_id in peers
        )
        # f+1 execution tracking for generator-driven confirmation latency.
        self._exec_counts: Dict[PaymentId, int] = {}
        self._submit_times: Dict[PaymentId, float] = {}
        self._confirm_hooks: List[ConfirmHook] = []
        for replica in self.replicas:
            replica.exec_hooks.append(self._on_replica_exec)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def submit(self, spender: ClientId, beneficiary: ClientId, amount: int) -> Payment:
        payment = self.make_payment(spender, beneficiary, amount)
        self.submit_payment(payment)
        return payment

    def submit_payment(self, payment: Payment) -> None:
        """Inject a request at every replica (client multicast pattern)."""
        self._submit_times[payment.identifier] = (
            payment.submitted_at if payment.submitted_at is not None else self.sim.now
        )
        for replica in self.replicas:
            replica.submit_local(payment)

    def add_client_node(
        self, client: ClientId, on_confirm: Optional[ConfirmHook] = None
    ) -> BftClientNode:
        node_id = self._next_client_node
        self._next_client_node += 1
        node = BftClientNode(
            self.sim, node_id, client, self.network, self, on_confirm=on_confirm
        )
        for replica in self.replicas:
            replica.client_nodes[client] = node_id
        return node

    def add_confirm_hook(self, hook: ConfirmHook) -> None:
        self._confirm_hooks.append(hook)

    def remove_confirm_hook(self, hook: ConfirmHook) -> None:
        """Detach a hook added by :meth:`add_confirm_hook` (idempotent)."""
        try:
            self._confirm_hooks.remove(hook)
        except ValueError:
            pass

    def _on_replica_exec(self, payment: Payment) -> None:
        key = payment.identifier
        submitted = self._submit_times.get(key)
        if submitted is None:
            return
        count = self._exec_counts.get(key, 0) + 1
        if count >= self.config.f + 1:
            self._exec_counts.pop(key, None)
            self._submit_times.pop(key, None)
            for hook in self._confirm_hooks:
                hook(payment, self.sim.now)
        else:
            self._exec_counts[key] = count

    def settle_all(self, max_time: float = 120.0) -> None:
        """Run until execution quiesces.

        The replicas' periodic timeout timers keep the event queue
        non-empty forever, so (unlike the Astro systems) quiescence is
        detected by observing a stable executed/pending snapshot over a
        few consecutive time slices.
        """
        deadline = self.sim.now + max_time
        slice_width = 0.5
        stable = 0
        # A pending-but-stalled request only makes progress after the
        # request timeout fires, so the stability window must outlast it.
        slices_needed = int((self.config.request_timeout + 1.0) / slice_width) + 1
        last_snapshot: Optional[Tuple] = None
        while self.sim.now < deadline and stable < slices_needed:
            self.run(self.sim.now + slice_width)
            snapshot = (
                tuple(replica.executed_count for replica in self.replicas),
                tuple(replica.pending_count for replica in self.replicas),
                tuple(replica.view for replica in self.replicas),
            )
            if snapshot == last_snapshot:
                stable += 1
            else:
                stable = 0
                last_snapshot = snapshot

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def settled_counts(self) -> List[int]:
        return [replica.executed_count for replica in self.replicas]

    def total_value(self, index: int = 0) -> int:
        return self.replicas[index].state.total_balance()

"""Leader-based BFT consensus replica (the paper's baseline, §VI-A).

Normal case (Mod-SMaRt/PBFT pattern): the leader of the current view
batches client requests and PROPOSEs them as numbered consensus
instances; replicas run two all-to-all quorum phases (WRITE, ACCEPT) and
execute decided batches in sequence order.

View change (synchronization phase): replicas monitor pending requests;
when one exceeds the request timeout they STOP the current view.  On
2f+1 STOPs a replica enters the next view and sends its protocol state
(STOPDATA) to the new leader, which re-proposes undecided instances in a
SYNC message.  Ordering halts between STOP and SYNC — the throughput gap
of Figs. 5–7.

Simplifications vs a production implementation:
re-proposal choice prefers write-certified values (sufficient for the
single-leader-failure scenarios evaluated, where decided values always
carry write certificates in the collected state); checkpoints/garbage
collection are omitted; request retransmission is unnecessary because the
simulated network never loses messages between correct replicas.  The
baseline runs in the simulator only, so it keeps no durable state.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from ..brb.batching import Batch
from ..crypto import costs
from ..crypto.hashing import Digest
from ..transport.endpoint import ProtocolEndpoint
from ..transport.interface import Transport
from ..core.interning import ClientInterner
from ..core.payment import ClientId, Payment, PaymentId
from .config import BftConfig
from .ledger import PaymentLedger
from .messages import (
    Accept,
    ClientRequest,
    Propose,
    Reply,
    Stop,
    StopData,
    Sync,
    Write,
)

__all__ = ["BftReplica"]

_REPLY_BYTES = 64


class _Instance:
    """Per-consensus-instance state."""

    __slots__ = ("batch", "digest", "writes", "accepts", "write_sent",
                 "accept_sent", "decided")

    def __init__(self) -> None:
        self.batch: Optional[Batch] = None
        self.digest: Optional[Digest] = None
        self.writes: Dict[Digest, Set[int]] = {}
        self.accepts: Dict[Digest, Set[int]] = {}
        self.write_sent = False
        self.accept_sent = False
        self.decided = False


class BftReplica(ProtocolEndpoint):
    """One replica of the consensus-based payment system.

    A plain protocol object over a
    :class:`~repro.transport.interface.Transport` — the same replica
    runs on the simulator or over real sockets.
    """

    def __init__(
        self,
        transport: Transport,
        config: BftConfig,
        genesis: Dict[ClientId, int],
        peers: List[int],
        interner: Optional[ClientInterner] = None,
    ) -> None:
        super().__init__(transport)
        node_id = transport.node_id
        self.config = config
        self.peers = list(peers)
        #: Peers minus ourselves, in peer order — the fan-out target list.
        self._others = [p for p in self.peers if p != node_id]
        self.n = len(self.peers)
        self.f = config.f
        self.quorum = config.quorum
        self.view = 0
        self.in_view_change = False
        self._leader_now = False
        self._refresh_leader_flag()
        self.ledger = PaymentLedger(
            genesis, on_settle=self._on_settle, interner=interner
        )
        #: Requests awaiting proposal (leader only).  BFT-SMaRt batches
        #: whatever accumulated when a consensus slot frees, rather than
        #: flushing on a timer — crucial for pipelining behaviour.
        self._request_queue: Deque[Payment] = deque()
        self._flush_timer_set = False
        self._instances: Dict[int, _Instance] = {}
        self._decided_batches: Dict[int, Batch] = {}
        self._last_executed = 0
        self._next_propose = 1
        self._outstanding = 0
        #: payment id -> (payment, arrival time); timeout monitoring and
        #: re-proposal source for a new leader.
        self._pending: Dict[PaymentId, Tuple[Payment, float]] = {}
        self._stop_sent: Set[int] = set()
        self._stops: Dict[int, Set[int]] = {}
        self._stopdata: Dict[int, Dict[int, StopData]] = {}
        self._synced_views: Set[int] = set()
        self._view_entered_at = 0.0
        self.executed_count = 0
        self.view_changes = 0
        #: External hooks: fn(payment) on each local execution.
        self.exec_hooks: List[Any] = []
        self.client_nodes: Dict[ClientId, int] = {}
        self.on(ClientRequest, self._on_request)
        self.on(Propose, self._on_propose)
        self.on(Write, self._on_write)
        self.on(Accept, self._on_accept)
        self.on(Stop, self._on_stop)
        self.on(StopData, self._on_stopdata)
        self.on(Sync, self._on_sync)
        self.set_timer(config.timeout_check_interval, self._check_timeouts)

    # ------------------------------------------------------------------
    # Roles
    # ------------------------------------------------------------------
    def leader_of(self, view: int) -> int:
        return self.peers[view % self.n]

    def _refresh_leader_flag(self) -> None:
        """Recompute the cached leadership flag.

        Must be called whenever ``view`` or ``in_view_change`` changes;
        caching keeps the per-request leadership test O(1) attribute
        access instead of two method calls.
        """
        self._leader_now = (
            self.peers[self.view % self.n] == self.node_id
            and not self.in_view_change
        )

    @property
    def is_leader(self) -> bool:
        return self._leader_now

    # ------------------------------------------------------------------
    # Cost model helpers
    # ------------------------------------------------------------------
    def _recv_cost(self, size: int, extra: float = 0.0) -> float:
        base = (
            costs.MESSAGE_OVERHEAD
            + costs.MAC_VERIFY
            + costs.PER_BYTE_CPU * size
            + extra
        )
        return base * costs.BFT_OVERHEAD_FACTOR

    def _send_cost(self) -> float:
        # BFT-SMaRt authenticates each copy with a per-recipient MAC.
        return (
            (costs.SEND_OVERHEAD + costs.MAC_COMPUTE) * costs.BFT_OVERHEAD_FACTOR
        )

    def _broadcast(self, message: Any, size: int, extra_recv: float = 0.0) -> None:
        cost = self._recv_cost(size, extra_recv)
        self.broadcast(
            self._others, message, size=size, recv_cost=cost,
            send_cost=self._send_cost(),
        )

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _on_request(self, src: int, message: ClientRequest) -> None:
        self.receive_request(message.payment)

    def submit_local(self, payment: Payment) -> None:
        """Inject a request as if multicast by a client (one replica's
        share; the system object fans out to all replicas)."""
        self.charge(costs.BFT_REQUEST * costs.BFT_OVERHEAD_FACTOR)
        self.receive_request(payment)

    def receive_request(self, payment: Payment) -> None:
        if not self.alive:
            return
        key = payment.identifier
        pending = self._pending
        if key in pending:
            return
        pending[key] = (payment, self.clock.now)
        if self._leader_now:
            self._request_queue.append(payment)
            self._schedule_flush()

    # ------------------------------------------------------------------
    # Normal case: propose / write / accept
    # ------------------------------------------------------------------
    def _schedule_flush(self) -> None:
        """Debounce proposal attempts to ``batch_delay`` granularity.

        Proposing on every request arrival would create one-payment
        batches at low load; a short delay lets a batch accumulate, and a
        full queue proposes immediately.
        """
        if len(self._request_queue) >= self.config.batch_size:
            self._try_propose()
            return
        if not self._flush_timer_set:
            self._flush_timer_set = True
            self.set_timer(self.config.batch_delay, self._flush_now)

    def _flush_now(self) -> None:
        self._flush_timer_set = False
        self._try_propose()

    def _try_propose(self) -> None:
        if not self.is_leader:
            return
        while self._request_queue and self._outstanding < self.config.pipeline_depth:
            items: List[Payment] = []
            while self._request_queue and len(items) < self.config.batch_size:
                items.append(self._request_queue.popleft())
            batch = Batch(items)
            seq = self._next_propose
            self._next_propose += 1
            self._outstanding += 1
            size = int(
                (costs.HEADER_BYTES + batch.size_bytes)
                * costs.BFT_PROPOSE_WIRE_AMPLIFICATION
            )
            message = Propose(self.view, seq, batch, size)
            self._broadcast(
                message, size,
                extra_recv=costs.HASH_PER_PAYMENT * batch.batch_items,
            )
            self._handle_propose(self.node_id, message)

    def _on_propose(self, src: int, message: Propose) -> None:
        self._handle_propose(src, message)

    def _handle_propose(self, src: int, message: Propose) -> None:
        if message.view != self.view or self.in_view_change:
            return
        if src != self.leader_of(message.view):
            return  # only the leader of the view may propose
        instance = self._instances.setdefault(message.seq, _Instance())
        if instance.batch is not None:
            return
        instance.batch = message.batch
        instance.digest = message.batch.cached_digest
        self._maybe_write(message.seq, instance)

    def _maybe_write(self, seq: int, instance: _Instance) -> None:
        if instance.write_sent or instance.digest is None:
            return
        instance.write_sent = True
        message = Write(self.view, seq, instance.digest)
        self._broadcast(message, costs.BFT_CONTROL_BYTES)
        self._apply_write(self.node_id, message)

    def _on_write(self, src: int, message: Write) -> None:
        self._apply_write(src, message)

    def _apply_write(self, src: int, message: Write) -> None:
        if message.view != self.view or self.in_view_change:
            return
        instance = self._instances.setdefault(message.seq, _Instance())
        if instance.accept_sent:
            # Our ACCEPT is out; the write certificate for our digest is
            # already recorded, so further WRITEs cannot change anything
            # (including view-change re-proposal choice, which only asks
            # whether *some* bucket reached the quorum).
            return
        voters = instance.writes.setdefault(message.batch_digest, set())
        voters.add(src)
        if (
            len(voters) >= self.quorum
            and instance.digest == message.batch_digest
        ):
            instance.accept_sent = True
            accept = Accept(self.view, message.seq, message.batch_digest)
            self._broadcast(accept, costs.BFT_CONTROL_BYTES)
            self._apply_accept(self.node_id, accept)

    def _on_accept(self, src: int, message: Accept) -> None:
        self._apply_accept(src, message)

    def _apply_accept(self, src: int, message: Accept) -> None:
        if message.view != self.view or self.in_view_change:
            return
        instance = self._instances.setdefault(message.seq, _Instance())
        if instance.decided:
            return  # late ACCEPTs cannot change a decided instance
        voters = instance.accepts.setdefault(message.batch_digest, set())
        voters.add(src)
        if (
            len(voters) >= self.quorum
            and instance.batch is not None
            and instance.digest == message.batch_digest
        ):
            instance.decided = True
            self._decided_batches[message.seq] = instance.batch
            if self.leader_of(self.view) == self.node_id:
                self._outstanding = max(0, self._outstanding - 1)
                self._try_propose()
            self._execute_ready()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute_ready(self) -> None:
        while self._last_executed + 1 in self._decided_batches:
            self._last_executed += 1
            batch = self._decided_batches[self._last_executed]
            self.charge(
                (costs.SETTLE_PER_PAYMENT + costs.BFT_REPLY)
                * batch.batch_items
            )
            for payment in batch:
                self._pending.pop(payment.identifier, None)
                self.ledger.apply(payment)

    def _on_settle(self, payment: Payment) -> None:
        self.executed_count += 1
        for hook in self.exec_hooks:
            hook(payment)
        client_node = self.client_nodes.get(payment.spender)
        if client_node is not None:
            self.send(client_node, Reply(payment.identifier), size=_REPLY_BYTES)

    # ------------------------------------------------------------------
    # Timeouts and view change
    # ------------------------------------------------------------------
    def _check_timeouts(self) -> None:
        if not self.alive:
            return
        self.set_timer(self.config.timeout_check_interval, self._check_timeouts)
        target = self.view + 1
        if target in self._stop_sent:
            return
        if self.in_view_change:
            # The view change itself is stuck (e.g. the new leader is also
            # faulty): escalate to the next view after another timeout.
            if self.clock.now - self._view_entered_at > self.config.request_timeout:
                self._send_stop(target)
            return
        if not self._pending:
            return
        # Pending requests are inserted in arrival order and re-stamped in
        # bulk on view entry, so the first entry always carries the
        # earliest arrival: the timeout check is O(1), not a scan.
        _, earliest = next(iter(self._pending.values()))
        if earliest <= self.clock.now - self.config.request_timeout:
            self._send_stop(target)

    def _send_stop(self, new_view: int) -> None:
        self._stop_sent.add(new_view)
        message = Stop(new_view)
        self._broadcast(message, costs.BFT_CONTROL_BYTES)
        self._apply_stop(self.node_id, message)

    def _on_stop(self, src: int, message: Stop) -> None:
        self._apply_stop(src, message)

    def _apply_stop(self, src: int, message: Stop) -> None:
        if message.new_view <= self.view:
            return
        voters = self._stops.setdefault(message.new_view, set())
        voters.add(src)
        if len(voters) >= self.f + 1 and message.new_view not in self._stop_sent:
            # Join the view change once it cannot be a Byzantine fabrication.
            self._send_stop(message.new_view)
        if len(voters) >= self.quorum:
            self._enter_view(message.new_view)

    def _enter_view(self, new_view: int) -> None:
        if new_view <= self.view:
            return
        self.view = new_view
        self.in_view_change = True
        self._refresh_leader_flag()
        self.view_changes += 1
        self._view_entered_at = self.clock.now
        self._outstanding = 0
        self._request_queue.clear()
        # Hand our protocol state to the new leader.
        frontier = self._decided_frontier()
        proposals: Dict[int, Tuple[Digest, Any, bool]] = {}
        for seq, instance in self._instances.items():
            if seq <= frontier or instance.batch is None:
                continue
            has_cert = any(
                len(voters) >= self.quorum for voters in instance.writes.values()
            )
            proposals[seq] = (instance.digest, instance.batch, has_cert)
        size = 128 + self.n * 16 + sum(
            proposal[1].size_bytes for proposal in proposals.values()
        )
        message = StopData(new_view, frontier, proposals, size)
        new_leader = self.leader_of(new_view)
        if new_leader == self.node_id:
            self._apply_stopdata(self.node_id, message)
        else:
            self.send(
                new_leader,
                message,
                size=size,
                recv_cost=self._recv_cost(size),
                send_cost=self._send_cost(),
            )

    def _decided_frontier(self) -> int:
        frontier = self._last_executed
        while frontier + 1 in self._decided_batches:
            frontier += 1
        return frontier

    def _on_stopdata(self, src: int, message: StopData) -> None:
        self._apply_stopdata(src, message)

    def _apply_stopdata(self, src: int, message: StopData) -> None:
        # Buffer state reports even before we entered the view ourselves;
        # a quorum of peers can move ahead of us.
        if message.new_view < self.view or self.leader_of(message.new_view) != self.node_id:
            return
        if message.new_view in self._synced_views:
            return
        bucket = self._stopdata.setdefault(message.new_view, {})
        bucket[src] = message
        self._maybe_sync(message.new_view)

    def _maybe_sync(self, new_view: int) -> None:
        """Emit SYNC once we lead ``new_view``, entered it, and hold 2f+1
        state reports."""
        if new_view != self.view or not self.in_view_change:
            return
        if new_view in self._synced_views:
            return
        bucket = self._stopdata.get(new_view, {})
        if len(bucket) < self.quorum:
            return
        self._synced_views.add(new_view)
        # Choose re-proposals: write-certified values win; a value decided
        # anywhere is write-certified in at least one collected report.
        chosen: Dict[int, Tuple[Any, bool]] = {}
        base = min(data.last_decided for data in bucket.values())
        for data in bucket.values():
            for seq, (digest_, batch, has_cert) in data.proposals.items():
                if seq <= base:
                    continue
                current = chosen.get(seq)
                if current is None or (has_cert and not current[1]):
                    chosen[seq] = (batch, has_cert)
        reproposals = {seq: batch for seq, (batch, _) in sorted(chosen.items())}
        size = 128 + self.n * 16 + sum(b.size_bytes for b in reproposals.values())
        sync = Sync(new_view, base, reproposals, size)
        extra = costs.BFT_SYNC_PER_INSTANCE * max(len(reproposals), 1)
        for dst in self.peers:
            if dst == self.node_id:
                continue
            self.send(
                dst, sync, size=size,
                recv_cost=self._recv_cost(size, extra),
                send_cost=self._send_cost(),
            )
        self._apply_sync(self.node_id, sync)

    def _on_sync(self, src: int, message: Sync) -> None:
        if src != self.leader_of(message.new_view):
            return
        self._apply_sync(src, message)

    def _apply_sync(self, src: int, message: Sync) -> None:
        if message.new_view < self.view:
            return
        self.view = message.new_view
        self.in_view_change = False
        self._refresh_leader_flag()
        # Restart request timers: the new leader deserves a full timeout
        # before anyone votes to depose it.
        now = self.clock.now
        self._pending = {
            key: (payment, now) for key, (payment, _) in self._pending.items()
        }
        highest = message.base_seq
        for seq, batch in message.reproposals.items():
            highest = max(highest, seq)
            instance = self._instances.setdefault(seq, _Instance())
            if instance.decided:
                continue
            # Adopt the re-proposal and restart the quorum phases for it.
            instance.batch = batch
            instance.digest = batch.cached_digest
            instance.write_sent = False
            instance.accept_sent = False
            instance.writes.clear()
            instance.accepts.clear()
            self._maybe_write(seq, instance)
        if self.leader_of(self.view) == self.node_id:
            self._next_propose = max(self._next_propose, highest + 1)
            self._outstanding = 0
            # Reintroduce requests that were in flight under the old leader.
            reproposed = {
                identifier
                for batch in message.reproposals.values()
                for identifier in batch.identifiers
            }
            for key, (payment, _) in sorted(self._pending.items(), key=lambda kv: kv[1][1]):
                if key not in reproposed:
                    self._request_queue.append(payment)
            self._schedule_flush()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def state(self):
        return self.ledger.state

    @property
    def pending_count(self) -> int:
        return len(self._pending)

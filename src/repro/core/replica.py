"""Common machinery of replicas: approval, recovery, and the Astro base.

A replica (i) ingests payments from the clients it represents, (ii)
broadcasts them in batches through a BRB layer, and (iii) approves and
settles every payment delivered by the broadcast (Listings 2–4).  The
paper defines *one* replica state and *one* approval rule and compares
three ways of agreeing on what to feed them, so the two pieces every
replica kind shares have one owner each, here:

* :class:`ApprovalQueue` — the account state plus the per-client
  sequence-gap queue that implements approval's *wait* (Listing 3), and
  the ``_drain`` worklist loop over them.  The single hook ``_settle``
  applies a payment and returns the beneficiary to re-examine, ``None``,
  or :data:`WAIT` when funds do not cover it yet (criterion (2)); the
  payment leaves the queue only after a non-``WAIT`` settle.  Inherited
  by :class:`AstroReplicaBase` and by the consensus baseline's
  :class:`~repro.consensus.ledger.PaymentLedger`.
* :class:`Recoverable` — the crash-recovery skeleton (restore the WAL's
  last checkpoint → replay the records after it → resume appending)
  with four hooks that ``AstroReplicaBase``, ``Astro2Replica`` and the
  consensus :class:`~repro.consensus.replica.BftReplica` *extend* with
  their own record kinds and fields.

They live in this module rather than one of their own because the
repository's benchmark addresses ``_drain`` by file and function name
and rebinds this module's ``state_fingerprint`` binding when tracing.

:class:`AstroReplicaBase` holds everything else the two Astro variants
share — batching with flow control, settlement bookkeeping, client
confirmations; the variants differ in the broadcast protocol and in
settle semantics.  What it has delivered is its BRB layer's record
(:class:`~repro.brb.interface.DeliveryFrontier`): a checkpoint stores
it, and WAL replay and catch-up imports deliver through the layer
(:meth:`AstroReplicaBase.import_batch`), which refuses a duplicate.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

from ..brb.batching import Batch, Batcher
from ..brb.interface import DeliveryFrontier
from ..crypto import costs
from ..transport.endpoint import ProtocolEndpoint
from ..transport.interface import Transport
from .accounts import AccountState
from .config import AstroConfig
from .interning import ClientInterner
from .directory import Directory
from .messages import CONFIRM_BYTES, ClientConfirm, ClientSubmit
from .payment import ClientId, Payment
from .persistence import (
    RecoveryReport,
    ReplicaStore,
    WalCorruption,
    restore_account_state,
    snapshot_account_state,
    state_fingerprint,
)

__all__ = ["ApprovalQueue", "AstroReplicaBase", "Recoverable", "WAIT"]

#: Confirmation hook: ``fn(payment, settled_at_representative)``.
ConfirmFn = Callable[[Payment, float], None]

#: ``_settle``'s "not yet": approval criterion (2) does not hold, leave
#: the payment queued until a credit re-examines its spender.
WAIT: Any = object()


class ApprovalQueue:
    """Replica state (Listing 2) and the approval rule (Listing 3).

    Delivered payments wait in ``_awaiting_seq`` for their client's
    preceding payment (criterion (1)) and — where the variant says so —
    for funds (criterion (2)); :meth:`_drain` settles whatever became
    approvable.
    """

    def __init__(
        self,
        genesis: Dict[ClientId, int],
        interner: Optional[ClientInterner] = None,
    ) -> None:
        #: ``interner`` is shared by all replicas of one system when the
        #: system builds them — the ClientId ⇄ index map is then paid
        #: once per process, not once per replica.
        self.state = AccountState(genesis, interner=interner)
        #: Delivered payments waiting on approval: client → seq → payment.
        self._awaiting_seq: Dict[ClientId, Dict[int, Payment]] = {}
        self.settled_count = 0

    def _drain(self, worklist: Deque[ClientId]) -> None:
        """Settle every payment whose approval criteria now hold.

        Settling a payment may unblock others (its beneficiary can now
        afford queued spends), so this cascades via a worklist until no
        progress remains.  Runs once per payment per replica.
        """
        awaiting = self._awaiting_seq
        seqnums = self.state.seqnums
        settle = self._settle
        while worklist:
            client = worklist.popleft()
            queue = awaiting.get(client)
            if not queue:
                continue
            while True:
                next_seq = seqnums.get(client, 0) + 1
                payment = queue.get(next_seq)
                if payment is None:
                    break  # criterion (1): wait for the predecessor
                beneficiary = settle(payment)
                if beneficiary is WAIT:
                    break  # criterion (2): wait for credits (Listing 3 l.18)
                del queue[next_seq]
                if beneficiary is not None:
                    worklist.append(beneficiary)
            if not queue:
                awaiting.pop(client, None)

    def _settle(self, payment: Payment) -> Any:
        """Variant hook: apply the payment (Listing 4 / Listing 9).

        Returns :data:`WAIT` (state untouched) when the payment must stay
        queued for funds, the beneficiary to re-examine when the settle
        credited a local balance (Astro I, the consensus ledger), else
        ``None`` (settled or rejected without a local credit, Astro II).
        """
        raise NotImplementedError


class Recoverable:
    """Crash recovery over a :class:`ReplicaStore`, for any replica kind.

    Needs ``self.state`` and ``self.node_id``.  Subclasses extend the
    four hooks — :meth:`_replay_record`, :meth:`_snapshot_data`,
    :meth:`_restore_snapshot`, :meth:`_finish_recovery` — with their own
    record kinds and fields, and call :meth:`_wal_checkpoint` after each
    durable step.
    """

    #: Durable state is live-cluster only: ``None`` in simulations, which
    #: keeps every simulator code path byte-identical.
    _wal: Optional[ReplicaStore] = None

    def bind_persistence(self, store: ReplicaStore) -> RecoveryReport:
        """Attach a store, restore its last checkpoint and replay the WAL
        records after it.

        Must run **before** the transport starts: replay re-executes the
        delivery path, and replayed sends (confirms, CREDITs, replies)
        must fall on the floor rather than reach the network.  Replay
        lands exactly on the pre-crash state or raises
        :class:`WalCorruption` — as does a damaged log, before any state
        is touched.
        """
        snapshot, records = store.recover()
        self._wal = store
        if snapshot is not None:
            self._restore_snapshot(snapshot)
        for record in records:
            self._replay_record(record)
        store.finish_recovery()
        self._finish_recovery()
        return RecoveryReport(
            snapshot is not None, len(records), state_fingerprint(self.state)
        )

    def _replay_record(self, record: Tuple[Any, ...]) -> None:
        """Re-apply one WAL record (``recording`` is off, so nothing is
        re-appended and no checkpoint fires).  Unknown kinds are ignored
        (forward compatibility)."""
        if record[0] == "fp":
            actual = state_fingerprint(self.state)
            if record[1] != actual:
                raise WalCorruption(
                    f"replica {self.node_id}: replay diverged at WAL "
                    f"fingerprint {record[1][:12]}.. (got {actual[:12]}..)"
                )

    def _wal_checkpoint(self) -> None:
        """Periodic fingerprint self-check + snapshot, driven by record
        count.  No-ops during replay (``recording`` is off)."""
        store = self._wal
        if store.fingerprint_due():
            store.record_fingerprint(state_fingerprint(self.state))
        if store.snapshot_due():
            store.write_snapshot(self._snapshot_data())

    def _snapshot_data(self) -> Dict[str, Any]:
        """Picklable capture of everything replay cannot reconstruct."""
        return {
            "fingerprint": state_fingerprint(self.state),
            "account": snapshot_account_state(self.state),
        }

    def _restore_snapshot(self, data: Dict[str, Any]) -> None:
        restore_account_state(self.state, data["account"])
        if data["fingerprint"] != state_fingerprint(self.state):
            raise WalCorruption(
                f"replica {self.node_id}: snapshot fingerprint mismatch"
            )

    def _finish_recovery(self) -> None:
        """Post-replay fixups, once the store records (a launch logs)."""


class AstroReplicaBase(ApprovalQueue, Recoverable, ProtocolEndpoint):
    """Shared replica behaviour; concrete variants override the hooks.

    A replica is a plain protocol object over a
    :class:`~repro.transport.interface.Transport`: hand it a simulator
    :class:`~repro.sim.node.Node` and it runs in the discrete-event
    world; hand it a :class:`~repro.transport.tcp.TcpTransport` and the
    identical code serves real sockets.
    """

    def __init__(
        self,
        transport: Transport,
        config: AstroConfig,
        genesis: Dict[ClientId, int],
        directory: Directory,
        interner: Optional[ClientInterner] = None,
    ) -> None:
        ProtocolEndpoint.__init__(self, transport)
        ApprovalQueue.__init__(self, genesis, interner)
        self.config = config
        self.directory = directory
        #: Cached reference to the directory's client → representative
        #: dict; consulted once per payment on several hot paths.
        self._rep_map = directory.rep_map
        self.batcher: Batcher[Payment] = Batcher(
            transport.clock,
            self._flush_batch,
            max_size=config.batch_size,
            max_delay=config.batch_delay,
        )
        self._broadcast_seq = 0
        self._inflight_batches = 0
        self._batch_backlog: Deque[Batch] = deque()
        #: Highest sequence number accepted from each represented client;
        #: a correct representative never broadcasts two payments with the
        #: same identifier (the Byzantine-client defense of §II).
        self._accepted_seq: Dict[ClientId, int] = {}
        self.rejected: List[Payment] = []
        #: External hooks fired when this replica, acting as the spender's
        #: representative, observes a settlement (latency measurement and
        #: client notification, §III "Client notification").
        self.confirm_hooks: List[ConfirmFn] = []
        #: node id of each client's own node, when clients run as nodes.
        self.client_nodes: Dict[ClientId, int] = {}
        # --- durable state (used only once a store is bound) ---
        #: Our own batches launched but not yet BRB-delivered back to us;
        #: rebroadcast after a crash (``relaunch_pending``).
        self._launched_pending: Dict[int, Batch] = {}
        self.on(ClientSubmit, self._on_client_submit)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _on_client_submit(self, src: int, message: ClientSubmit) -> None:
        self.ingest(message.payment)

    def submit_local(self, payment: Payment) -> None:
        """Inject a payment as if a represented client had sent it.

        Used by load generators; charges the same ingestion CPU a real
        client request would.
        """
        self.charge(costs.INGEST_PER_REQUEST)
        self.ingest(payment)

    def ingest(self, payment: Payment) -> None:
        """Accept a client payment for broadcast.

        Only payments of clients this replica represents are accepted —
        "only the representative can broadcast outgoing payments for a
        client's xlog" (§II).
        """
        spender = payment.spender
        if self._rep_map.get(spender) != self.node_id or not self.alive:
            return
        accepted = self._accepted_seq
        expected = accepted.get(spender, 0) + 1
        if payment.seq != expected:
            # Reused or out-of-order sequence number: a correct client
            # never does this, so the submission is discarded.
            return
        accepted[spender] = payment.seq
        prepared = self._prepare_outgoing(payment)
        if prepared is not None:
            self.batcher.add(prepared)

    def _prepare_outgoing(self, payment: Payment) -> Optional[Payment]:
        """Variant hook: transform/validate a payment before batching.

        Returning ``None`` means the payment is held or dropped by the
        variant (e.g. Astro II queues underfunded payments until
        dependencies arrive).
        """
        return payment

    # ------------------------------------------------------------------
    # Broadcast with flow control
    # ------------------------------------------------------------------
    def _flush_batch(self, items: List[Payment]) -> None:
        batch = Batch(items)
        if self._inflight_batches >= self.config.max_inflight_batches:
            self._batch_backlog.append(batch)
            return
        self._launch_batch(batch)

    def _launch_batch(self, batch: Batch) -> None:
        self._broadcast_seq += 1
        if self._wal is not None:
            # Write-ahead: the launch is durable before any frame leaves,
            # so a crash between broadcast and delivery can rebroadcast
            # the identical batch at the identical sequence number.
            self._wal.record(("launch", self._broadcast_seq, batch))
            self._launched_pending[self._broadcast_seq] = batch
        self._inflight_batches += 1
        self._do_broadcast(self._broadcast_seq, batch)

    def _do_broadcast(self, seq: int, batch: Batch) -> None:
        """Variant hook: hand the batch to the BRB layer."""
        raise NotImplementedError

    def _batch_done(self) -> None:
        """Called when one of our own batches is locally delivered."""
        if self._inflight_batches > 0:
            self._inflight_batches -= 1
        while (
            self._batch_backlog
            and self._inflight_batches < self.config.max_inflight_batches
        ):
            self._launch_batch(self._batch_backlog.popleft())

    # ------------------------------------------------------------------
    # Delivery → approval (Listing 3) → settlement
    # ------------------------------------------------------------------
    def _deliver_batch(self, origin: int, batch: Batch) -> None:
        """Process a BRB-delivered batch of payments."""
        if not self.alive:
            return
        self.charge(costs.SETTLE_PER_PAYMENT * batch.batch_items)
        # Local bindings: this loop runs once per payment per replica and
        # dominates the settle path at high offered rates.
        rep_get = self._rep_map.get
        awaiting = self._awaiting_seq
        seqnums = self.state.seqnums
        # Deduplicated in *insertion order* (dict, not set): client ids are
        # strings, and iterating a set of strings would order the drain —
        # and therefore settle/confirm timing — by the interpreter's
        # randomized hash seed, making results differ across processes.
        touched: Dict[ClientId, None] = {}
        for payment in batch.items:
            # Defense in depth: a payment may only arrive via its
            # spender's representative (§II).
            spender = payment.spender
            if rep_get(spender) != origin:
                continue
            queue = awaiting.get(spender)
            if queue is None:
                queue = awaiting[spender] = {}
            seq = payment.seq
            if seq in queue or seq <= seqnums.get(spender, 0):
                continue  # duplicate identifier: first delivery wins
            queue[seq] = payment
            touched[spender] = None
        self._drain(deque(touched))
        if origin == self.node_id:
            self._batch_done()

    # ------------------------------------------------------------------
    # Confirmation (§III "Client notification")
    # ------------------------------------------------------------------
    def _confirm(self, payment: Payment) -> None:
        """Notify the spender that her payment settled (we are her rep)."""
        self.charge(costs.CONFIRM_PER_PAYMENT)
        now = self.clock.now
        for hook in self.confirm_hooks:
            hook(payment, now)
        client_node = self.client_nodes.get(payment.spender)
        if client_node is not None:
            self.send(
                client_node,
                ClientConfirm(payment, now),
                size=CONFIRM_BYTES,
            )

    # ------------------------------------------------------------------
    # Durable state & crash recovery (live cluster only)
    # ------------------------------------------------------------------
    def _replay_record(self, record: Tuple[Any, ...]) -> None:
        kind = record[0]
        if kind == "deliver":
            self.import_batch(record[1], record[2], record[3])
        elif kind == "launch":
            seq, batch = record[1], record[2]
            if self._broadcast_seq < seq:
                self._broadcast_seq = seq
            self._launched_pending[seq] = batch
        else:
            super()._replay_record(record)

    def _on_brb_deliver(self, origin: int, seq: int, batch: Batch) -> None:
        """Variant hook: BRB delivery entry point (replayed verbatim)."""
        raise NotImplementedError

    def _wal_deliver(self, origin: int, seq: int, batch: Batch) -> None:
        """Durable record of one BRB delivery (persistence bound only).

        The BRB layer delivers each identifier once, so nothing here
        deduplicates.
        """
        self._wal.record(("deliver", origin, seq, batch))
        if origin == self.node_id:
            self._launched_pending.pop(seq, None)

    def _snapshot_data(self) -> Dict[str, Any]:
        data = super()._snapshot_data()
        frontier, extra = self.brb.delivered.capture()
        data.update(
            settled_count=self.settled_count,
            rejected=list(self.rejected),
            broadcast_seq=self._broadcast_seq,
            launched_pending=dict(self._launched_pending),
            frontier=frontier,
            extra=extra,
            awaiting={c: dict(q) for c, q in self._awaiting_seq.items()},
        )
        return data

    def _restore_snapshot(self, data: Dict[str, Any]) -> None:
        super()._restore_snapshot(data)
        self.settled_count = data["settled_count"]
        self.rejected = list(data["rejected"])
        self._broadcast_seq = data["broadcast_seq"]
        self._launched_pending = dict(data["launched_pending"])
        self.brb.delivered = DeliveryFrontier(data["frontier"], data["extra"])
        self._awaiting_seq = {c: dict(q) for c, q in data["awaiting"].items()}

    def _finish_recovery(self) -> None:
        """Derives ``_accepted_seq`` from what is durable — settled,
        launched, delivered-but-unsettled — so a client retrying a
        payment already broadcast cannot create a duplicate identifier,
        and one retrying a payment that died in the batcher is accepted.
        """
        accept = self._accept_through
        accept(self.state.seqnums.items())
        accept(p.identifier for b in self._launched_pending.values() for p in b.items)
        accept(p.identifier for q in self._awaiting_seq.values() for p in q.values())

    def _accept_through(self, identifiers: Iterable[Tuple[ClientId, int]]) -> None:
        """Raise ``_accepted_seq`` to every ``(client, seq)`` of a client
        this replica represents."""
        accepted, rep_get, me = self._accepted_seq, self._rep_map.get, self.node_id
        for client, seq in identifiers:
            if rep_get(client) == me and accepted.get(client, 0) < seq:
                accepted[client] = seq

    def relaunch_pending(self) -> List[int]:
        """Rebroadcast batches launched but never delivered pre-crash.

        Run *after* catch-up: a batch that did complete at the peers
        arrives via import (which pops it from ``_launched_pending``), so
        only genuinely undelivered batches are rebroadcast — at their
        original sequence numbers, with identical content, which the
        signed BRB's re-ACK path (``resend_acks``) completes.  No peer
        has retired such a batch's instance: its COMMIT is queued in the
        same handler that logs our own delivery, so it never left.
        """
        seqs = sorted(self._launched_pending)
        for seq in seqs:
            self._inflight_batches += 1
            self._do_broadcast(seq, self._launched_pending[seq])
        return seqs

    def import_batch(self, origin: int, seq: int, batch: Batch) -> bool:
        """Apply a batch from a WAL: a peer's (catch-up) or, during
        replay, this replica's own.

        The BRB layer delivers it out of band through the normal delivery
        path — durable when the store records — unless its frontier says
        the identifier is delivered already: then ``False``.
        """
        return self.brb.deliver_out_of_band(origin, seq, batch)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def balance_of(self, client: ClientId) -> int:
        """Settled balance, as returned to a querying client (§III)."""
        return self.state.balance(client)

    @property
    def queued_payments(self) -> int:
        """Delivered-but-unsettled payments (waiting on approval)."""
        return sum(len(queue) for queue in self._awaiting_seq.values())

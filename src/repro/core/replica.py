"""Common machinery of replicas: approval, recovery, and the Astro base.

A replica (i) ingests payments from the clients it represents, (ii)
broadcasts them in batches through a BRB layer, and (iii) approves and
settles every payment delivered by the broadcast (Listings 2–4).  The
paper defines *one* replica state and *one* approval rule and compares
three ways of agreeing on what to feed them, so the piece every replica
kind shares has one owner, here: :class:`ApprovalQueue` — the account
state, the per-client sequence-gap queue that implements approval's
*wait* (Listing 3), and the settle loop over them, which Astro II alone
overrides.  Inherited by
:class:`AstroReplicaBase` and by the consensus baseline's
:class:`~repro.consensus.ledger.PaymentLedger`.

The repository's benchmark (``perfbench/``) binds this code by name; its
tests (CI's ``unit`` job) fail on a rename:

* its tracer wraps ``AccountState.try_settle_spend``, whose truthy calls
  it counts and must equal Σ ``settled_count`` — so it runs once per
  settled payment —, ``Astro2Replica._settle`` (from the class
  ``__dict__``), and ``AstroReplicaBase._deliver_batch``, ``_confirm``
  (whose argument must be a ``Payment``: it reads ``identifier``),
  ``ingest`` and ``_flush_batch``; and it rebinds this module's
  ``state_fingerprint``;
* its simulator workloads attribute delivery time to the functions named
  ``_deliver_batch``, ``_drain``, ``_confirm`` and ``_batch_done`` in this
  file and ``_on_brb_deliver`` and ``_settle`` in ``core/astro*.py``, so
  delivery-path code lives in functions of those names.  Astro II's
  ``_settle`` also cuts the CREDIT sub-batches, so that work counts as
  delivery time; the CREDIT share starts at ``_flush_credits`` (its list
  still names ``_credit_groups``, which no longer exists).  The exception
  is :meth:`ApprovalQueue._settle`, the loop Astro I shares with the
  consensus ledger, and the two helpers called once per run,
  :func:`_walk` and ``_confirms_for``: they live here under other
  names, so the simulator workloads' ``core.replica.deliver_us_per_payment``
  does not count them (for ``sim_astro1_n32``, its settle loop).

:class:`AstroReplicaBase` holds everything else the two Astro variants
share — batching with flow control, settlement bookkeeping, client
confirmations, and crash recovery over a WAL (live cluster only: the
consensus baseline runs in the simulator and keeps no durable state);
the variants differ in the broadcast protocol and in settle semantics.
What it has delivered is its BRB layer's record
(:class:`~repro.brb.interface.DeliveryFrontier`): a checkpoint stores
it, and WAL replay and catch-up imports deliver through the layer
(:meth:`AstroReplicaBase.import_batch`), which refuses a duplicate.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import chain, count, repeat
from operator import is_not
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

__all__ = ["ApprovalQueue", "AstroReplicaBase"]

#: Confirmation hook: ``fn(payment, settled_at_representative)``.
ConfirmFn = Callable[[Payment, float], None]

#: ``(client, index, sn, items)``: the client, its
#: :meth:`AccountState.index` and settled sequence number, and its
#: payments in seq order: its one position in the delivered batch, or
#: what a walk of its queue pops from ``sn + 1`` up, one seq at a time
#: (positions and waiting ``Payment``\ s), so that a run that stops
#: leaves the rest queued.
Run = Tuple[ClientId, int, int, Iterable[Any]]


def _walk(
    queue: Dict[int, Any], sn: int, later: Optional[Dict[int, Any]] = None
) -> Iterable[Any]:
    """A run over ``queue``: pops it from ``sn + 1`` up, one seq at a time,
    until a seq is missing; after each payment, a later copy of its
    identifier that ``later`` holds (tried if the first one is passed over
    without settling).  Lazy, in C: a run that stops leaves the rest
    where it was."""
    if not later:
        return iter(map(queue.pop, count(sn + 1), repeat(None)).__next__, None)
    pairs = zip(
        map(queue.pop, count(sn + 1), repeat(None)),
        map(later.pop, count(sn + 1), repeat(None)),
    )
    return filter(
        partial(is_not, None), chain.from_iterable(iter(pairs.__next__, (None, None)))
    )


class ApprovalQueue:
    """Replica state (Listing 2) and the approval rule (Listing 3).

    Payments settle in runs (:data:`Run`) through :meth:`_settle`, which
    settles whole runs in one loop.  A run stops at its first payment
    that must wait — for the client's preceding payment (criterion (1))
    or, where the variant says so, for funds (criterion (2)) — and that
    payment goes back to ``_awaiting_seq``, which holds a ``Payment``
    for each waiting one, under its seq.  A settle that credits a local
    balance wakes the beneficiary, and :meth:`_drain` settles what it
    can now afford.
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

    def _drain(self, woken: Iterable[ClientId]) -> None:
        """Settle the waiting payments of each woken client as one run,
        first woken first.

        The run pops the client's queue from ``sn + 1`` upward and stops
        at the first payment that cannot settle, so a wake that settles
        nothing touches one entry.  Settling may credit others, who are
        woken in turn: this cascades until no progress remains.
        """
        awaiting, worklist, locate = self._awaiting_seq, deque(woken), self.state.locate
        while worklist and awaiting:
            client = worklist.popleft()
            queue = awaiting.get(client)
            if not queue:
                continue
            (index,), (sn,) = locate((client,))
            stopped: List[Tuple[ClientId, Any]] = []
            run = (client, index, sn, _walk(queue, sn))
            worklist += self._settle([run], None, stopped) or ()
            for _, payment in stopped:
                queue[payment.seq] = payment
            if not queue:
                del awaiting[client]

    def _settle(
        self,
        runs: Iterable[Run],
        batch: Optional[Batch],
        stopped: List[Tuple[ClientId, Any]],
    ) -> Optional[List[ClientId]]:
        """Settle ``runs`` (their positions are in ``batch``) in one loop:
        Listing 4's settle, which deposits to the beneficiary (Astro I,
        the consensus ledger); Astro II overrides it (Listing 9).

        A payment at or below the settled seq is a later copy: skipped.
        At a gap, or at one the balance does not cover, the run stops:
        ``(client, payment)`` goes to ``stopped``, and the payment waits.
        Else one :meth:`AccountState.try_settle_spend` settles it, and
        :meth:`_confirm` reports it where :meth:`_confirms_for` says so.
        Returns the beneficiaries credited, to wake.
        """
        spend, confirms_for = self.state.try_settle_spend, self._confirms_for
        credited: List[ClientId] = []
        if batch is not None:
            cores, extras = batch.cores, batch.extras
        for spender, index, sn, items in runs:
            confirming = confirms_for(spender)
            for item in items:
                if item.__class__ is int:
                    core, waited = cores[item], None
                    deps = extras[item] if item in extras else ()
                else:
                    core, deps, waited = item.core, item.deps, item
                seq = core[1]
                if seq != sn + 1:
                    if seq <= sn:
                        continue
                elif spend(index, core, deps, True):
                    sn = seq
                    credited.append(core[2])
                    if confirming:
                        self._confirm(waited or batch.payment(item))
                    continue
                stopped.append((spender, item))
                break
        self.settled_count += len(credited)
        return credited

    def _confirms_for(self, spender: ClientId) -> bool:
        """Whether :meth:`_settle` reports ``spender``'s settles here."""
        raise NotImplementedError

    def _confirm(self, payment: Payment) -> None:
        """Report one settled payment."""
        raise NotImplementedError


class AstroReplicaBase(ApprovalQueue, ProtocolEndpoint):
    """Shared replica behaviour; concrete variants override the hooks.

    A replica is a plain protocol object over a
    :class:`~repro.transport.interface.Transport`: hand it a simulator
    :class:`~repro.sim.node.Node` and it runs in the discrete-event
    world; hand it a :class:`~repro.transport.tcp.TcpTransport` and the
    identical code serves real sockets.
    """

    #: Durable state is live-cluster only: ``None`` in simulations, which
    #: keeps every simulator code path byte-identical.
    _wal: Optional[ReplicaStore] = None

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
        if payment.deps:  # the representative's to attach (Listing 7)
            payment = Payment(*payment.core)
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
        """Process a BRB-delivered batch of payments in one pass over its
        columns: each spender's payments are one run (:data:`Run`), and
        runs settle in the order their spenders first appear."""
        if not self.alive:
            return
        self.charge(costs.SETTLE_PER_PAYMENT * batch.batch_items)
        spenders, seqs = batch.flat[0::4], batch.flat[1::4]
        n, awaiting, rep_get = len(spenders), self._awaiting_seq, self._rep_map.get
        # Defense in depth: a payment may only arrive via its spender's
        # representative (§II).
        via_rep = list(map(rep_get, spenders)).count(origin) == n
        stopped: List[Tuple[ClientId, Any]] = []
        # Spender -> seq -> first position, in insertion order: iterating a
        # set of string ids would order the settles by the hash seed.
        arrived: Dict[ClientId, Dict[int, int]] = {}
        if via_rep and len(set(spenders)) == n and awaiting.keys().isdisjoint(spenders):
            # Every spender once, none waiting: a run of one each.
            indices, seqnums = self.state.locate(spenders)
            credited = self._settle(
                zip(spenders, indices, seqnums, zip(range(n))), batch, stopped
            )
        else:
            for position, spender, seq in zip(count(), spenders, seqs):
                if via_rep or rep_get(spender) == origin:
                    arrived.setdefault(spender, {}).setdefault(seq, position)
            indices, seqnums = self.state.locate(arrived)
            runs = []
            for (spender, fresh), index, sn in zip(arrived.items(), indices, seqnums):
                # A waiting payment precedes a later copy of its identifier.
                queue, later = awaiting.setdefault(spender, {}), {}
                for seq, position in fresh.items():
                    if seq > sn and queue.setdefault(seq, position) is not position:
                        later[seq] = position
                runs.append((spender, index, sn, _walk(queue, sn, later)))
            credited = self._settle(runs, batch, stopped)
        for spender, item in stopped:
            payment = batch.payment(item) if item.__class__ is int else item
            awaiting.setdefault(spender, {})[payment.seq] = payment
        for spender, fresh in arrived.items():
            # What the run left of this batch waits as a ``Payment``.
            queue = awaiting[spender]
            if not queue:
                del awaiting[spender]
                continue
            for seq in fresh:
                if queue.get(seq).__class__ is int:
                    queue[seq] = batch.payment(queue[seq])
        if credited:
            self._drain(credited)
        if origin == self.node_id:
            self._batch_done()

    # ------------------------------------------------------------------
    # Confirmation (§III "Client notification")
    # ------------------------------------------------------------------
    def _confirms_for(self, spender: ClientId) -> bool:
        return self._rep_map.get(spender) == self.node_id

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
    #
    # Restore the WAL's last checkpoint → replay the records after it →
    # resume appending.  Astro II extends the four hooks
    # (``_replay_record``, ``_snapshot_data``, ``_restore_snapshot``,
    # ``_finish_recovery``) with its own record kinds and fields.
    # ------------------------------------------------------------------
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
        kind = record[0]
        if kind == "deliver":
            self.import_batch(record[1], record[2], record[3])
        elif kind == "launch":
            seq, batch = record[1], record[2]
            if self._broadcast_seq < seq:
                self._broadcast_seq = seq
            self._launched_pending[seq] = batch
        elif kind == "fp":
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
        """Picklable capture of everything replay cannot reconstruct."""
        frontier, extra = self.brb.delivered.capture()
        return dict(
            fingerprint=state_fingerprint(self.state),
            account=snapshot_account_state(self.state),
            settled_count=self.settled_count,
            rejected=list(self.rejected),
            broadcast_seq=self._broadcast_seq,
            launched_pending=dict(self._launched_pending),
            frontier=frontier,
            extra=extra,
            awaiting={c: dict(q) for c, q in self._awaiting_seq.items()},
        )

    def _restore_snapshot(self, data: Dict[str, Any]) -> None:
        restore_account_state(self.state, data["account"])
        if data["fingerprint"] != state_fingerprint(self.state):
            raise WalCorruption(
                f"replica {self.node_id}: snapshot fingerprint mismatch"
            )
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
        accept, seqnum, me = self._accept_through, self.state.seqnum, self.node_id
        accept((c, seqnum(c)) for c, rep in self._rep_map.items() if rep == me)
        accept(chain.from_iterable(
            b.identifiers for b in self._launched_pending.values()))
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

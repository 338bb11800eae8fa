"""Astro II — the signature-based variant (§IV-A, Listings 6–10).

Uses the signed BRB (O(N) messages, no totality) plus the dependency
mechanism: settled payments generate signed CREDIT messages to the
beneficiary's representative; f+1 CREDITs form a dependency certificate;
certificates ride along the beneficiary's next outgoing payment and are
materialized into balance at settle time (with replay protection).
Because certificates transfer trust between shards, the same replica code
runs sharded and non-sharded deployments (§V) — sharding is configuration.

Differences from Astro I, per the paper's "Comparison" paragraph:

* an insufficiently funded payment is **rejected** at settle (Listing 9
  l.49), not queued — the representative is responsible for proving funds
  before broadcasting (it holds payments until enough certificates
  accumulate);
* settling **never credits the beneficiary directly**; only dependency
  materialization does.
"""

from __future__ import annotations

from typing import Any, Deque, Dict, List, Optional, Set, Tuple
from collections import deque
from operator import le

from ..brb.batching import Batch, KeyedCoalescer
from ..brb.signed import SignedBroadcast
from ..crypto import costs
from ..crypto.keys import Keychain, KeyPair
from ..transport.interface import Transport
from .config import AstroConfig
from .dependencies import (
    CreditBundle,
    CreditMessage,
    DependencyCertificate,
    DependencyCollector,
    certificates_of,
    reference_pairs,
    verify_certificate,
)
from .directory import Directory
from .interning import ClientInterner
from .payment import ClientId, Payment, PaymentId
from .persistence import WalCorruption
from .replica import AstroReplicaBase

__all__ = ["Astro2Replica"]


class Astro2Replica(AstroReplicaBase):
    """One Astro II replica: signed BRB + dependency-based settlement."""

    def __init__(
        self,
        transport: Transport,
        config: AstroConfig,
        genesis: Dict[ClientId, int],
        directory: Directory,
        keychain: Keychain,
        key: KeyPair,
        interner: Optional[ClientInterner] = None,
    ) -> None:
        super().__init__(transport, config, genesis, directory, interner)
        self.keychain = keychain
        self.key = key
        node_id = transport.node_id
        self.shard_id = directory.shard_of_replica(node_id)
        peers = list(directory.members(self.shard_id))
        self.brb = SignedBroadcast(
            transport,
            peers,
            self._on_brb_deliver,
            keychain,
            key,
            f=config.f,
            ack_guard=self._ack_guard,
            resend_acks=config.brb_resend_acks,
        )
        # --- representative-side state (Listings 7, 10) ---
        self._collector = DependencyCollector(directory, keychain, node_id)
        #: Accumulated, not-yet-attached certificates per represented
        #: client, in minting order: ``(record, position)`` references
        #: into the collector's minted sub-batches, held flat
        #: (``dependencies.reference_pairs``).
        self._deps: Dict[ClientId, List[Any]] = {}
        #: Optimistic balance view used to decide when a client's payment
        #: can be broadcast (settled balance ± in-flight effects),
        #: *including* certificates not yet attached.
        self._projected: Dict[ClientId, int] = {
            client: genesis.get(client, 0)
            for client in genesis
            if directory.rep_of(client) == node_id
        }
        #: Like ``_projected`` but counting only value already attached or
        #: settled — what the replicas would accept without further
        #: certificates.  Drives lazy dependency attachment.
        self._attached_projection: Dict[ClientId, int] = dict(self._projected)
        #: Payments held until the projected balance covers them.
        self._held: Dict[ClientId, Deque[Payment]] = {}
        # --- replica-side state (Listings 6, 9) ---
        #: The ACK guard's identifier -> core of the payments ACKed and not
        #: settled (in flight, awaiting a predecessor, or rejected); a
        #: settled one is answered by its xlog.
        self._seen_payments: Dict[PaymentId, tuple] = {}
        #: usedDeps (Listing 9 l.39): materialized dependency ids per
        #: client.  A set kept as an insertion-ordered dict: it only
        #: grows, so a checkpoint writes only what it gained since the
        #: previous one (``core.persistence.HISTORIES``).
        self._used_deps: Dict[ClientId, Dict[PaymentId, None]] = {}
        #: Sub-batch certificates already verified on this replica, keyed
        #: by (shard, sub-batch digest).  One verification covers every
        #: payment of the sub-batch (§VI-A's 2-level batching).  Not
        #: checkpointed: ``_cert_valid`` refills it on first sight.
        self._verified_certs: Dict[Tuple[int, int], None] = {}
        #: The current delivery's CREDIT sub-batches, cut by ``_settle``
        #: and signed by ``_flush_credits``: beneficiary representative ->
        #: (flat cores, core digests), in settle order — Astro II's second
        #: batching level (§VI-A), one CREDIT per sub-batch.
        self._subbatches: Dict[int, Tuple[List[Any], List[int]]] = {}
        #: Cross-delivery CREDIT coalescer (``credit_coalesce_delay`` > 0):
        #: a *transport* window.  Sub-batches are still cut per delivery —
        #: their composition is a pure function of the origin's batch
        #: stream, so every settler signs bit-identical digests and the
        #: collector's f+1 matching rule is unaffected — but the signed
        #: :class:`CreditMessage`s accumulate per beneficiary
        #: representative across deliveries and one :class:`CreditBundle`
        #: per (this replica → representative) pair per window replaces up
        #: to ``N·window/batch_window`` unicasts.  Buckets are weighed by
        #: payment count so the size cap still bounds wire bytes.  ``None``
        #: keeps the per-delivery flush of Listing 9 byte-for-byte.
        self._credit_coalescer: Optional[KeyedCoalescer[CreditMessage]] = None
        if config.credit_coalesce_delay > 0:
            self._credit_coalescer = KeyedCoalescer(
                transport.clock,
                self._flush_credit_window,
                max_size=config.batch_size,
                max_delay=config.credit_coalesce_delay,
                weight_fn=lambda message: len(message.flat) // 4,
            )
        #: Per-shard verify-cost bound for sub-batch certificates: a valid
        #: certificate carries at most ``f_shard + 1`` signatures of *its*
        #: shard (oversized ones are rejected by ``verify_certificate``
        #: after an O(1) length check), so charged CPU never scales with
        #: an attacker-sized signature tuple — and with heterogeneous
        #: shard sizes each certificate is priced by its own shard's
        #: bound, not this shard's.
        self._cert_sig_bounds: Dict[int, int] = {}
        self.on(CreditMessage, self._on_credit)
        self.on(CreditBundle, self._on_credit_bundle)

    # ------------------------------------------------------------------
    # ACK guard — Listing 6's conflict check, on payment identifiers
    # ------------------------------------------------------------------
    def _ack_guard(self, origin: int, seq: int, batch: Batch) -> bool:
        """Refuse to ACK a batch containing an equivocating payment.

        Quorum intersection then guarantees that of two conflicting
        payments (same identifier, different content) at most one can ever
        gather a commit certificate — Astro's double-spend prevention.
        """
        flat, seen, state = batch.flat, self._seen_payments, self.state
        spenders, seqs = flat[0::4], flat[1::4]
        if list(map(self._rep_map.get, spenders)).count(origin) != len(seqs):
            return False
        identifiers = batch.identifiers  # a simulated batch's replicas share them
        settled = state.seqnums(spenders)
        entries: Any = zip(identifiers, batch.cores)
        if any(map(le, seqs, settled)) or any(map(seen.__contains__, identifiers)):
            entries, checked = [], entries
            for (identifier, core), seqnum in zip(checked, settled):
                if identifier[1] <= seqnum:
                    if state.xlog(identifier[0])[identifier[1] - 1].core != core:
                        return False
                elif seen.get(identifier, core) != core:
                    return False
                else:
                    entries.append((identifier, core))
        seen.update(entries)
        return True

    # ------------------------------------------------------------------
    # Representative side: holding, dependency attachment (Listing 7)
    # ------------------------------------------------------------------
    def _prepare_outgoing(self, payment: Payment) -> Optional[Payment]:
        spender = payment.spender
        held = self._held.get(spender)
        if held:
            # Preserve the client's FIFO order behind already-held payments.
            held.append(payment)
            return None
        projected = self._projected.get(spender, 0)
        if projected < payment.amount:
            self._held.setdefault(spender, deque()).append(payment)
            return None
        self._projected[spender] = projected - payment.amount
        return self._attach_deps(payment)

    def _attach_deps(self, payment: Payment) -> Payment:
        """Attach accumulated certificates — lazily.

        Listing 7 attaches ``deps[Alice]`` on every outgoing payment; we
        attach only when the client's already-provable balance cannot
        cover the amount, and then attach *everything* accumulated.  This
        amortizes certificate wire size and verification over many
        payments (in the spirit of §VI-A's batching) and changes nothing
        semantically: a certificate is only needed to prove funds the
        replicas have not yet seen materialized.

        The certificates are built here, from the client's ``(record,
        position)`` references, in minting order and with one unpacked
        sub-batch per record (``dependencies.certificates_of``); until
        then a pending certificate is two list slots.
        """
        spender = payment.spender
        attached = self._attached_projection.get(spender, 0)
        if attached >= payment.amount:
            self._attached_projection[spender] = attached - payment.amount
            return payment
        references = self._deps.pop(spender, None)
        if not references:
            # Nothing to attach; the hold logic (``_projected``) should
            # have prevented this path, but a Byzantine client bypassing
            # it simply gets its payment rejected at settle.
            self._attached_projection[spender] = attached - payment.amount
            return payment
        certs = certificates_of(references)
        gained = sum(cert.amount for cert in certs)
        self._attached_projection[spender] = attached + gained - payment.amount
        return Payment(*payment.core, deps=certs)

    def _release_held(self, client: ClientId) -> None:
        held = self._held.get(client)
        while held and self._projected.get(client, 0) >= held[0].amount:
            payment = held.popleft()
            self._projected[client] = self._projected.get(client, 0) - payment.amount
            self.batcher.add(self._attach_deps(payment))
        if not held:
            self._held.pop(client, None)

    # ------------------------------------------------------------------
    # Broadcast / delivery
    # ------------------------------------------------------------------
    def _cert_sig_bound(self, shard_id: int) -> int:
        """Honest signature count for a certificate of ``shard_id``.

        ``f_shard + 1``, memoized per shard (a registered shard's
        membership is static).  An unknown shard bounds at 0 —
        ``verify_certificate`` rejects it after one O(1) directory lookup
        without examining any signature — and is *not* cached, so a
        reconfiguration registering the shard later prices it correctly.
        """
        bound = self._cert_sig_bounds.get(shard_id)
        if bound is None:
            try:
                bound = self.directory.faulty_bound(shard_id) + 1
            except KeyError:
                return 0
            self._cert_sig_bounds[shard_id] = bound
        return bound

    def _do_broadcast(self, seq: int, batch: Batch) -> None:
        self.brb.broadcast(seq, batch, batch.size_bytes)

    def _on_brb_deliver(self, origin: int, seq: int, batch: Batch) -> None:
        if self._wal is not None:
            self._wal_deliver(origin, seq, batch)
        # Charge verification of attached dependency certificates once per
        # *sub-batch* certificate (f+1 signatures each) — verification,
        # like signing, is amortized by the 2-level batching scheme.
        verify_cost = 0.0
        charged: Set[Tuple[int, int]] = set()
        sig_bound = self._cert_sig_bound
        for deps in batch.extras.values():
            for cert in deps:
                key = (cert.shard_id, cert.subbatch_digest)
                if key not in self._verified_certs and key not in charged:
                    charged.add(key)
                    # Clamp at the *certificate's* shard bound: an
                    # attacker-padded signature tuple is rejected by
                    # verify_certificate's length check before any
                    # signature is examined, so it cannot occupy more CPU
                    # than an honest certificate of that shard.
                    sigs = len(cert.signatures)
                    bound = sig_bound(cert.shard_id)
                    if sigs > bound:
                        sigs = bound
                    verify_cost += costs.ECDSA_VERIFY * sigs
        if verify_cost:
            self.charge(verify_cost)
        self._deliver_batch(origin, batch)
        self._flush_credits()
        if self._wal is not None:
            self._wal_checkpoint()

    # ------------------------------------------------------------------
    # Settlement (Listings 8–9)
    # ------------------------------------------------------------------
    def _settle(self, runs, batch, stopped) -> None:
        # Astro II approval waits only on the sequence number (Listing 8):
        # the funds decision rejects, it never waits.  Each settled payment
        # joins its beneficiary representative's sub-batch.
        state, used_deps, me = self.state, self._used_deps, self.node_id
        spend, rep_get = state.try_settle_spend, self._rep_map.get
        groups, unseen, settled = self._subbatches, self._seen_payments.pop, 0
        # No wake calls this: ``batch`` is always the delivered one.
        cores, extras, digests = batch.cores, batch.extras, batch.core_digests
        for spender, index, sn, items in runs:
            confirming = rep_get(spender) == me
            for item in items:
                if item.__class__ is int:
                    core, waited = cores[item], None
                    deps = extras[item] if item in extras else ()
                else:
                    core, deps, waited = item.core, item.deps, item
                seq = core[1]
                if seq != sn + 1:
                    if seq > sn:  # criterion (1): wait for the predecessor
                        stopped.append((spender, item))
                        break
                    continue
                if deps:
                    # Materialize never-seen-before dependencies (Listing 9
                    # l.44-48); each certificate credits at most once.
                    used = used_deps.setdefault(spender, {})
                    for cert in deps:
                        if (cert.beneficiary == spender and cert.dep_id not in used
                                and self._cert_valid(cert)):
                            used[cert.dep_id] = None
                            state.credit(spender, cert.amount)
                # Funds check + spend in one pass on the int64 slabs.
                if not spend(index, core, deps):
                    # Listing 9 l.49: an underfunded payment is dropped
                    # without advancing sn.  Correct representatives prove
                    # funds before broadcasting, so this fires only under
                    # faulty clients/reps.
                    self.rejected.append(waited or batch.payment(item))
                    continue
                sn = seq
                settled += 1
                unseen((spender, seq), None)
                rep_node = rep_get(core[2])
                group = groups.get(rep_node)
                if group is None:
                    group = groups[rep_node] = ([], [])
                group[0].extend(core)
                group[1].append(
                    digests[item] if waited is None else waited.core_digest())
                if confirming:
                    self._confirm(waited or batch.payment(item))
        self.settled_count += settled
        return None  # no direct deposit — nothing new to re-examine

    def _cert_valid(self, cert: DependencyCertificate) -> bool:
        key = (cert.shard_id, cert.subbatch_digest)
        if key in self._verified_certs:
            # The sub-batch is already proven settled by f+1 replicas of
            # its shard; only this payment's membership needs checking.
            return cert.payment in cert.subbatch
        if verify_certificate(cert, self.directory, self.keychain):
            self._verified_certs[key] = None
            return True
        return False

    # ------------------------------------------------------------------
    # CREDIT fan-out (Listing 9 l.55-57, 2-level batching §VI-A)
    # ------------------------------------------------------------------
    def _flush_credits(self) -> None:
        """Sign this delivery's sub-batches, cut by :meth:`_settle`; apply,
        send or stage (the transport window) each for its representative.
        The groups are insertion-ordered, so content and emission order
        are pure functions of settle order."""
        if not self._subbatches:
            return
        groups, self._subbatches = self._subbatches, {}
        coalescer = self._credit_coalescer
        for rep_node, group in groups.items():
            message = self._sign_subbatch(*group)
            if rep_node == self.node_id:
                self._apply_credit(self.node_id, message)
            elif coalescer is None:
                self._send_credits(rep_node, [message])
            else:
                coalescer.add(rep_node, message)

    def _flush_credit_window(
        self, rep_node: int, messages: List[CreditMessage]
    ) -> None:
        """Coalescer flush: one window's buffered CREDITs, one envelope.

        The sub-batches inside were signed at their own delivery times;
        the bundle only amortizes per-message network and CPU overhead.
        """
        if not self.alive:
            # A window may expire after this replica crashed; a crashed
            # replica sends nothing (the network would also drop a dead
            # source, but skipping avoids building the bundle at all).
            return
        self._send_credits(rep_node, messages)

    def _sign_subbatch(self, flat: List[Any], digests: List[int]) -> CreditMessage:
        """Sign one per-delivery sub-batch.

        One signature per sub-batch is the whole point of the second
        batching level (§VI-A); transport coalescing never changes how
        many sub-batches are signed, only how they ship.
        """
        self.charge(costs.ECDSA_SIGN)
        return CreditMessage.from_cores(self.key, self.shard_id, tuple(flat), digests)

    def _send_credits(
        self, rep_node: int, messages: List[CreditMessage]
    ) -> None:
        """Unicast one or more signed sub-batches as one network message.

        The receiver verifies each sub-batch's signature individually
        (they feed separate certificates), so only the envelope terms —
        one message overhead, one send — amortize across the bundle.
        """
        if len(messages) == 1:
            payload: object = messages[0]
            size = messages[0].size
        else:
            payload = CreditBundle(tuple(messages))
            size = payload.size
        recv_cost = (
            costs.MESSAGE_OVERHEAD
            + costs.PER_BYTE_CPU * size
            + costs.ECDSA_VERIFY * len(messages)
        )
        self.send(
            rep_node,
            payload,
            size=size,
            recv_cost=recv_cost,
            send_cost=costs.SEND_OVERHEAD,
        )

    def _on_credit(self, src: int, message: CreditMessage) -> None:
        if self._wal is not None:
            # Durable before applied.  Only *remote* CREDITs are logged:
            # self-credits are regenerated deterministically when the
            # delivery that produced them is replayed.
            self._wal.record(("credit", src, message))
        self._apply_credit(src, message)

    def _on_credit_bundle(self, src: int, bundle: CreditBundle) -> None:
        if self._wal is not None:
            for message in bundle.messages:
                self._wal.record(("credit", src, message))
        for message in bundle.messages:
            self._apply_credit(src, message)

    def _apply_credit(self, src: int, message: CreditMessage) -> None:
        minted = self._collector.add_credit(src, message)
        if not minted:
            return
        deps = self._deps
        projected = self._projected
        # Replay releases nothing: projections are derived after it.
        held = self._held if self._wal is None or self._wal.recording else ()
        for reference in minted:
            record, position = reference
            beneficiary = record.beneficiary(position)
            bucket = deps.get(beneficiary)
            if bucket is None:
                deps[beneficiary] = list(reference)
            else:
                bucket += reference
            projected[beneficiary] = (
                projected.get(beneficiary, 0) + record.amount(position)
            )
            if beneficiary in held:
                self._release_held(beneficiary)

    # ------------------------------------------------------------------
    # Durable state & crash recovery (live cluster only)
    # ------------------------------------------------------------------
    def _replay_record(self, record) -> None:
        if record[0] == "credit":
            self._apply_credit(record[1], record[2])
        else:
            super()._replay_record(record)

    def _snapshot_data(self):
        data = super()._snapshot_data()
        # State WAL replay cannot rebuild (CREDIT aggregation is cumulative;
        # projections are derived), pickled via the ``__reduce__`` wire
        # forms.  ``deps`` pickles each minted sub-batch once, however
        # many pending references point into it.  ``seen_payments``
        # guards ACKed, unsettled payments; deriving ``used_deps`` would
        # re-verify every certificate.
        data["deps"] = {c: list(refs) for c, refs in self._deps.items()}
        data["held"] = {c: list(q) for c, q in self._held.items()}
        data["collector"] = self._collector.capture()
        data["seen_payments"] = dict(self._seen_payments)
        data["used_deps"] = {c: dict(s) for c, s in self._used_deps.items()}
        return data

    def _restore_snapshot(self, data) -> None:
        if not isinstance(data["collector"], dict):
            # Written before captures: a whole collector object, with a
            # directory and keychain that are not this replica's.
            raise WalCorruption(
                f"replica {self.node_id}: snapshot holds a collector "
                "object, not its capture"
            )
        super()._restore_snapshot(data)
        self._deps = {c: list(refs) for c, refs in data["deps"].items()}
        self._held = {c: deque(q) for c, q in data["held"].items()}
        self._collector.refill(data["collector"])
        self._seen_payments = dict(data["seen_payments"])
        self._used_deps = {c: dict(s) for c, s in data["used_deps"].items()}

    def _finish_recovery(self) -> None:
        super()._finish_recovery()
        # A held payment was accepted: a retry of it must not be.
        self._accept_through(p.identifier for q in self._held.values() for p in q)
        # Guard every unsettled payment this replica durably knows (the
        # xlogs answer for the settled ones).  Payments ACKed after the
        # last WAL record are forgotten, and that is a known safety gap
        # (ROADMAP item 1): two ACK quorums share f+1 replicas, and with f
        # Byzantine ones among them this replica may be the only correct
        # one, so ACKing a conflicting payload after recovery lets both
        # deliver.
        seen = self._seen_payments
        unsettled: Dict[ClientId, List[Payment]] = {}
        queues = [queue.values() for queue in self._awaiting_seq.values()]
        queues += self._launched_pending.values()  # iterating builds payments
        for queue in queues:
            for payment in queue:
                seen.setdefault(payment.identifier, payment.core)
                unsettled.setdefault(payment.spender, []).append(payment)
        # Projections are derived, not restored: replay re-mints every
        # logged CREDIT but not the ingest-time attach and debit.  ``debt``
        # is the unsettled spend less the unspent certificates riding it.
        me = self.node_id
        for client in [c for c, rep in self._rep_map.items() if rep == me]:
            spends, debt = unsettled.get(client, ()), 0
            if spends or client in self._deps:
                used = self._used_deps.get(client, {})
                riding = {c.dep_id: c.amount for p in spends for c in p.deps}
                riding = {d: a for d, a in riding.items() if d not in used}
                pending = {}
                for record, position in reference_pairs(
                    self._deps.pop(client, ())
                ):
                    dep_id = record.dep_id(position)
                    if dep_id not in used and dep_id not in riding:
                        pending[dep_id] = (record, position)
                if pending:
                    self._deps[client] = [
                        item for pair in pending.values() for item in pair
                    ]
                debt = sum(p.amount for p in spends) - sum(riding.values())
            self._attached_projection[client] = self.balance_of(client) - debt
            self._projected[client] = self.available_balance(client) - debt
        # Held payments launched since the checkpoint leave the queue; the
        # rest are released against the derived projections.
        for client, held in list(self._held.items()):
            spends = unsettled.get(client, ())
            top = max([self.state.seqnum(client)] + [p.seq for p in spends])
            while held and held[0].seq <= top:
                held.popleft()
            self._release_held(client)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def available_balance(self, client: ClientId) -> int:
        """Representative's view: settled balance + pending certificates.

        What a client of this representative could spend right now.
        """
        pending = sum(
            record.amount(position)
            for record, position in reference_pairs(self._deps.get(client, ()))
        )
        return self.state.balance(client) + pending

    @property
    def held_payments(self) -> int:
        return sum(len(queue) for queue in self._held.values())

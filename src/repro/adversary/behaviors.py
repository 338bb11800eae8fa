"""Byzantine behaviour library: egress-level attacks on Astro replicas.

A :class:`ByzantineBehavior` wraps one replica at the
:meth:`~repro.sim.node.Node.send` / :meth:`~repro.sim.node.Node.broadcast`
boundary (via :meth:`~repro.sim.node.Node.install_egress_tap`).  The
replica keeps running the *honest* protocol code underneath — only what
leaves the node is tampered with, which is exactly the power model of a
Byzantine network adversary that controls a replica's link but must still
produce messages correct replicas might accept.

Every behaviour draws randomness from a :func:`~repro.sim.rng.stable_rng`
stream handed in by the controller, so injected faults are deterministic
and independent of ``PYTHONHASHSEED`` (golden/byte-identity tests compare
attacked histories across fresh interpreters).
"""

from __future__ import annotations

from collections import deque
from typing import Any, List, Optional, Sequence, Tuple

from ..brb.batching import Batch
from ..brb.bracha import BrbPrepare
from ..brb.signed import SbPrepare
from ..core.dependencies import (
    CreditBundle,
    CreditMessage,
    DependencyCertificate,
    credit_content,
    subbatch_digest_of,
)
from ..core.messages import ClientSubmit
from ..core.payment import Payment
from ..crypto import costs
from ..crypto.signatures import sign

__all__ = [
    "ByzantineBehavior",
    "EquivocatingRepresentative",
    "ForgedCreditSettler",
    "CertStuffingRepresentative",
    "MuteReplica",
    "SelectiveDelivery",
    "ReplayStaleTraffic",
    "OverloadClient",
]


def _forged_copy(payment: Payment) -> Payment:
    """A payment with the same identifier but conflicting content."""
    return Payment(
        payment.spender,
        payment.seq,
        payment.beneficiary,
        payment.amount + 1,
        deps=payment.deps,
    )


class ByzantineBehavior:
    """Strategy interface for one Byzantine replica's egress.

    Lifecycle: the controller calls :meth:`attach` (which installs the
    egress tap; the node's raw bound methods arrive via :meth:`bind`),
    then :meth:`arm` at the attack's start time.  Until armed, the tap
    forwards verbatim — an attacked run before its arm time is
    byte-identical to a benign one.

    Subclasses override :meth:`filter_send` / :meth:`filter_broadcast`
    (and optionally :meth:`on_arm`) and bump :attr:`tampered` whenever
    they mutate, drop, or inject traffic, so tests can assert the attack
    actually fired.
    """

    #: Registry name (controller + ``REPRO_ADVERSARY_ATTACKS`` knob).
    name = "base"
    #: System kinds the attack applies to.
    systems: Tuple[str, ...] = ("astro1", "astro2")

    def __init__(self) -> None:
        self.replica: Any = None
        self.system: Any = None
        self.rng: Any = None
        self.adversary_ids: Tuple[int, ...] = ()
        self.active = False
        #: Number of tampering decisions taken while armed.
        self.tampered = 0
        self._raw_send: Any = None
        self._raw_broadcast: Any = None

    # -- wiring ---------------------------------------------------------
    def attach(
        self,
        replica: Any,
        system: Any,
        rng: Any,
        adversary_ids: Sequence[int] = (),
    ) -> None:
        self.replica = replica
        self.system = system
        self.rng = rng
        self.adversary_ids = tuple(adversary_ids)
        replica.install_egress_tap(self)

    def bind(self, raw_send: Any, raw_broadcast: Any) -> None:
        """Receive the node's untapped bound methods (Node tap protocol)."""
        self._raw_send = raw_send
        self._raw_broadcast = raw_broadcast

    def arm(self) -> None:
        if not self.active:
            self.active = True
            self.on_arm()

    def on_arm(self) -> None:
        """Hook run once when the attack starts (timers, target choice)."""

    # -- tap entry points (shadow Node.send / Node.broadcast) -----------
    def send(
        self,
        dst: int,
        payload: Any,
        size: int = 256,
        recv_cost: Optional[float] = None,
        send_cost: float = 0.0,
    ) -> None:
        if not self.active:
            self._raw_send(
                dst, payload, size=size, recv_cost=recv_cost, send_cost=send_cost
            )
            return
        self.filter_send(dst, payload, size, recv_cost, send_cost)

    def broadcast(
        self,
        targets: Sequence[int],
        payload: Any,
        size: int = 256,
        recv_cost: Optional[float] = None,
        send_cost: float = 0.0,
    ) -> None:
        if not self.active:
            self._raw_broadcast(
                targets, payload, size=size, recv_cost=recv_cost,
                send_cost=send_cost,
            )
            return
        self.filter_broadcast(targets, payload, size, recv_cost, send_cost)

    # -- overridables (default: forward verbatim) -----------------------
    def filter_send(
        self,
        dst: int,
        payload: Any,
        size: int,
        recv_cost: Optional[float],
        send_cost: float,
    ) -> None:
        self._raw_send(
            dst, payload, size=size, recv_cost=recv_cost, send_cost=send_cost
        )

    def filter_broadcast(
        self,
        targets: Sequence[int],
        payload: Any,
        size: int,
        recv_cost: Optional[float],
        send_cost: float,
    ) -> None:
        self._raw_broadcast(
            targets, payload, size=size, recv_cost=recv_cost,
            send_cost=send_cost,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        node = getattr(self.replica, "node_id", None)
        return f"<{type(self).__name__} attack={self.name} node={node}>"


class EquivocatingRepresentative(ByzantineBehavior):
    """Different batches to different quorum halves (§IV equivocation).

    The real batch goes to enough correct replicas that — together with
    the attacker's own local ACK/ECHO — it still reaches the 2f+1 quorum;
    a forged variant (every payment's amount bumped by one, so the
    identifiers collide but the content conflicts) goes to the remaining
    third of the targets.  In Astro I totality drags the starved replicas
    to the real batch via READY amplification; in Astro II they simply
    never deliver that batch (the commit certificate names a digest they
    did not ACK), so their xlogs lag as a prefix.  Either way at most one
    payload per identifier can ever gather a certificate.  RNG-free.
    """

    name = "equivocate"
    systems = ("astro1", "astro2")

    def filter_broadcast(
        self, targets, payload, size, recv_cost, send_cost
    ) -> None:
        inner = getattr(payload, "payload", None)
        if isinstance(payload, (SbPrepare, BrbPrepare)) and isinstance(
            inner, Batch
        ):
            targets = list(targets)
            starve = max(1, len(targets) // 3)
            forged_batch = Batch(tuple(map(_forged_copy, inner)))
            forged = type(payload)(payload.seq, forged_batch, payload.size)
            self.tampered += 1
            honest = targets[:-starve]
            if honest:
                self._raw_broadcast(
                    honest, payload, size=size, recv_cost=recv_cost,
                    send_cost=send_cost,
                )
            self._raw_broadcast(
                targets[-starve:], forged, size=size, recv_cost=recv_cost,
                send_cost=send_cost,
            )
            return
        self._raw_broadcast(
            targets, payload, size=size, recv_cost=recv_cost,
            send_cost=send_cost,
        )


class ForgedCreditSettler(ByzantineBehavior):
    """CREDITs whose payload disagrees with their signed digest.

    Every outgoing CREDIT keeps its (valid) signature and claimed
    sub-batch digest but ships payments with inflated amounts — the
    forgery PR 5 hardened :meth:`DependencyCollector.add_credit` against:
    the collector recomputes ``subbatch_digest_of(payments)`` on first
    arrival and must discard the message, so no certificate ever binds
    the inflated amounts.  Certificates still mint from the >= f+1
    correct settlers.
    """

    name = "forge_credit"
    systems = ("astro2",)

    def filter_send(self, dst, payload, size, recv_cost, send_cost) -> None:
        if isinstance(payload, CreditMessage):
            payload = self._forge(payload)
            self.tampered += 1
        elif isinstance(payload, CreditBundle):
            payload = CreditBundle(
                tuple(self._forge(m) for m in payload.messages)
            )
            self.tampered += 1
        self._raw_send(
            dst, payload, size=size, recv_cost=recv_cost, send_cost=send_cost
        )

    @staticmethod
    def _forge(message: CreditMessage) -> CreditMessage:
        inflated = tuple(
            Payment(p.spender, p.seq, p.beneficiary, p.amount * 100 + 1)
            for p in message.payments
        )
        # Same claimed digest and signature, conflicting payload: the
        # receiver's first-arrival digest check is the only defence.
        return CreditMessage(
            message.shard_id, inflated, message.signature,
            subbatch_digest=message.subbatch_digest,
        )


class CertStuffingRepresentative(ByzantineBehavior):
    """Attacker-sized signature tuples on fabricated dependency certs.

    Each payment in an outgoing batch gains a forged certificate for a
    ghost crediting payment (a client that does not exist paying the
    spender a fortune).  The sub-batch digest and the attacker's own
    signature over ``credit_content`` are *well-formed*; what is wrong is
    the signature tuple's shape, alternating between the two PR 5
    hardening targets: oversized (f+2 copies — rejected O(1) on length
    before any signature verification) and undersized (one signature —
    rejected by the distinct-signer >= f+1 threshold after a single
    verify).  Correct replicas deliver the stuffed batch (the attacker's
    own BRB endpoint collects the stuffed digest's ACK quorum), reject
    every ghost certificate in ``_cert_valid``, and settle the real
    payments untouched.
    """

    name = "cert_stuffing"
    systems = ("astro2",)

    def __init__(self) -> None:
        super().__init__()
        self._ghost_seq = 0

    def filter_broadcast(
        self, targets, payload, size, recv_cost, send_cost
    ) -> None:
        if isinstance(payload, SbPrepare) and isinstance(
            payload.payload, Batch
        ):
            stuffed = Batch(tuple(map(self._stuff, payload.payload)))
            delta = stuffed.size_bytes - payload.payload.size_bytes
            forged = SbPrepare(payload.seq, stuffed, payload.size + delta)
            self.tampered += 1
            self._raw_broadcast(
                list(targets), forged, size=forged.size, recv_cost=recv_cost,
                send_cost=send_cost,
            )
            return
        self._raw_broadcast(
            targets, payload, size=size, recv_cost=recv_cost,
            send_cost=send_cost,
        )

    def _stuff(self, payment: Payment) -> Payment:
        self._ghost_seq += 1
        ghost = Payment(
            ("ghost", self.replica.node_id, self._ghost_seq),
            1,
            payment.spender,
            1 << 30,
        )
        subbatch = (ghost,)
        batch_digest = subbatch_digest_of(subbatch)
        signature = sign(
            self.replica.key,
            credit_content(self.replica.shard_id, batch_digest),
        )
        faulty_bound = self.system.config.f
        if self._ghost_seq % 2:
            signatures = (signature,) * (faulty_bound + 2)  # oversized
        else:
            signatures = (signature,)  # undersized (distinct signers < f+1)
        cert = DependencyCertificate(
            ghost, self.replica.shard_id, subbatch, signatures,
            subbatch_digest=batch_digest,
        )
        return Payment(*payment.core, deps=payment.deps + (cert,))


class MuteReplica(ByzantineBehavior):
    """Drops every outgoing message while still receiving and processing.

    Distinct from a crash: the replica's local state keeps advancing, so
    a later un-muting (or state inspection) sees a live but silent
    participant — the classic "receive-only" omission fault.
    """

    name = "mute"
    systems = ("astro1", "astro2")

    def filter_send(self, dst, payload, size, recv_cost, send_cost) -> None:
        self.tampered += 1

    def filter_broadcast(
        self, targets, payload, size, recv_cost, send_cost
    ) -> None:
        self.tampered += 1


class SelectiveDelivery(ByzantineBehavior):
    """Delivers to one half of the replicas and starves the other.

    The starved set is drawn once at arm time from the behaviour's stable
    RNG stream, so which replicas are starved is deterministic per
    (seed, attacker).  Client-facing traffic (confirmations) passes.
    """

    name = "selective"
    systems = ("astro1", "astro2")

    def on_arm(self) -> None:
        others = [
            r for r in self.system.replica_node_ids
            if r != self.replica.node_id
        ]
        self.starve = frozenset(self.rng.sample(others, len(others) // 2))

    def filter_send(self, dst, payload, size, recv_cost, send_cost) -> None:
        if dst in self.starve:
            self.tampered += 1
            return
        self._raw_send(
            dst, payload, size=size, recv_cost=recv_cost, send_cost=send_cost
        )

    def filter_broadcast(
        self, targets, payload, size, recv_cost, send_cost
    ) -> None:
        kept = [t for t in targets if t not in self.starve]
        if len(kept) != len(targets):
            self.tampered += 1
        if kept:
            self._raw_broadcast(
                kept, payload, size=size, recv_cost=recv_cost,
                send_cost=send_cost,
            )


class ReplayStaleTraffic(ByzantineBehavior):
    """Re-sends stale batches, ACKs, and CREDITs at random delays.

    Keeps a bounded buffer of recently sent unicasts and broadcast copies;
    on each new send it (probabilistically, from the stable stream)
    schedules one stale message for redelivery.  Correct endpoints must
    shrug: duplicate PREPAREs hit the idempotent instance state, stale
    CREDITs hit the collector's straggler/dedup paths, duplicate commits
    are delivered-once.  Replays ride the replica's own timer, so they
    stop if the attacker crashes.
    """

    name = "replay"
    systems = ("astro1", "astro2")

    #: Bounded history so memory stays O(1) over long runs.
    BUFFER = 32
    REPLAY_PROB = 0.3
    MIN_DELAY = 0.05
    MAX_DELAY = 0.5

    def on_arm(self) -> None:
        self._stale: deque = deque(maxlen=self.BUFFER)

    def filter_send(self, dst, payload, size, recv_cost, send_cost) -> None:
        self._raw_send(
            dst, payload, size=size, recv_cost=recv_cost, send_cost=send_cost
        )
        self._maybe_replay()
        self._stale.append((dst, payload, size, recv_cost))

    def filter_broadcast(
        self, targets, payload, size, recv_cost, send_cost
    ) -> None:
        self._raw_broadcast(
            targets, payload, size=size, recv_cost=recv_cost,
            send_cost=send_cost,
        )
        self._maybe_replay()
        for dst in targets:
            self._stale.append((dst, payload, size, recv_cost))

    def _maybe_replay(self) -> None:
        if self._stale and self.rng.random() < self.REPLAY_PROB:
            dst, payload, size, recv_cost = self._stale[
                self.rng.randrange(len(self._stale))
            ]
            self.tampered += 1
            self.replica.set_timer(
                self.rng.uniform(self.MIN_DELAY, self.MAX_DELAY),
                self._raw_send, dst, payload, size, recv_cost,
            )


class OverloadClient(ByzantineBehavior):
    """Floods the lowest-id correct replica with bogus client submits.

    The spender is a ghost client unknown to the representative map, so
    every submit is dropped after the ingest CPU charge — a pure
    computational DoS against one correct representative that must not
    corrupt any client's sequence state.  The flood ticker is a timer the
    behaviour starts itself in :meth:`on_arm`.
    """

    name = "flood"
    systems = ("astro1", "astro2")

    #: ~8000 submits/s: BURST per TICK seconds.
    TICK = 0.002
    BURST = 16

    def on_arm(self) -> None:
        correct = [
            r for r in self.system.replica_node_ids
            if r not in self.adversary_ids
        ]
        self.victim = correct[0]
        self._ghost = ("flood", self.replica.node_id)
        self._sink = ("flood-sink", self.replica.node_id)
        self._next_seq = 0
        self.replica.set_timer(self.TICK, self._tick)

    def _tick(self) -> None:
        if not self.active:
            return
        for _ in range(self.BURST):
            self._next_seq += 1
            bogus = Payment(self._ghost, self._next_seq, self._sink, 1)
            self.tampered += 1
            self._raw_send(
                self.victim, ClientSubmit(bogus), costs.PAYMENT_BYTES,
                costs.INGEST_PER_REQUEST,
            )
        self.replica.set_timer(self.TICK, self._tick)


#: Every concrete behaviour, in catalog order.
ALL_BEHAVIORS: List[type] = [
    EquivocatingRepresentative,
    ForgedCreditSettler,
    CertStuffingRepresentative,
    MuteReplica,
    SelectiveDelivery,
    ReplayStaleTraffic,
    OverloadClient,
]

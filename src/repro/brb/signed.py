"""Signature-based Byzantine reliable broadcast — the Astro II layer.

Implements Listing 6 of the paper (inspired by Malkhi & Reiter [61]),
with O(N) message complexity:

1. **PREPARE** — the broadcaster sends the payload to all replicas.
2. **ACK** — a replica that has not previously seen a *different* payload
   for the identifier signs the payload digest and unicasts the signed ACK
   back to the broadcaster.
3. **COMMIT** — on a Byzantine quorum (2f+1) of matching ACKs, the
   broadcaster sends everyone a COMMIT carrying the gathered signatures;
   a replica delivers after verifying the certificate.

Agreement holds because two conflicting payloads cannot both gather 2f+1
ACKs (quorum intersection contains a correct replica, which ACKs one
payload per identifier).  The protocol deliberately **lacks totality**: a
Byzantine broadcaster may send COMMIT to only a subset of replicas.
Astro II compensates at the payment layer with CREDIT dependency
certificates (§IV-A), which this module does not know about.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..crypto import costs
from ..crypto.hashing import Digest
from ..crypto.keys import Keychain, KeyPair, replica_owner
from ..crypto.signatures import Signature, sign, verify
from ..transport.interface import Transport
from .interface import BroadcastLayer, DeliverFn
from .interface import _payload_digest, _payload_items
from .quorums import byzantine_quorum, max_faulty

__all__ = ["SignedBroadcast", "SbPrepare", "SbAck", "SbCommit"]

_ACK_BYTES = costs.HEADER_BYTES + costs.SIGNATURE_BYTES


class SbPrepare:
    __slots__ = ("seq", "payload", "size")

    def __init__(self, seq: int, payload: Any, size: int) -> None:
        self.seq = seq
        self.payload = payload
        self.size = size

    def __reduce__(self):
        return (SbPrepare, (self.seq, self.payload, self.size))


class SbAck:
    __slots__ = ("origin", "seq", "payload_digest", "signature")

    def __init__(
        self, origin: int, seq: int, payload_digest: Digest, signature: Signature
    ) -> None:
        self.origin = origin
        self.seq = seq
        self.payload_digest = payload_digest
        self.signature = signature

    def __reduce__(self):
        return (SbAck, (self.origin, self.seq, self.payload_digest,
                        self.signature))


class SbCommit:
    __slots__ = ("origin", "seq", "payload_digest", "proof", "size")

    def __init__(
        self,
        origin: int,
        seq: int,
        payload_digest: Digest,
        proof: Tuple[Signature, ...],
        size: int,
    ) -> None:
        self.origin = origin
        self.seq = seq
        self.payload_digest = payload_digest
        self.proof = proof
        self.size = size

    def __reduce__(self):
        return (SbCommit, (self.origin, self.seq, self.payload_digest,
                           self.proof, self.size))


def _ack_content(origin: int, seq: int, payload_digest: Digest) -> tuple:
    """The statement an ACK signature endorses."""
    return ("brb-ack", origin, seq, payload_digest)


class _Instance:
    __slots__ = ("pending", "pending_digest", "acks", "committed",
                 "buffered_commit")

    def __init__(self) -> None:
        #: First payload received via PREPARE (the one we ACKed).
        self.pending: Any = None
        self.pending_digest: Optional[Digest] = None
        #: Collected ACK signatures by digest (broadcaster side).
        self.acks: Dict[Digest, Dict[int, Signature]] = {}
        self.committed = False
        #: COMMIT that arrived before its PREPARE (possible with a
        #: Byzantine broadcaster or message reordering).
        self.buffered_commit: Optional[SbCommit] = None


class SignedBroadcast(BroadcastLayer):
    """Signed BRB endpoint attached to one replica node.

    Only members count: a PREPARE, ACK or COMMIT from a non-member is
    dropped, and a certificate's quorum counts member signers only.

    An instance retires at delivery: every later PREPARE, ACK or COMMIT
    for its identifier is dropped on arrival.
    """

    _instance_type = _Instance

    def __init__(
        self,
        node: Transport,
        peers: Sequence[int],
        deliver: DeliverFn,
        keychain: Keychain,
        key: KeyPair,
        f: Optional[int] = None,
        ack_guard: Optional[Any] = None,
        resend_acks: bool = False,
    ) -> None:
        super().__init__(deliver)
        self.node = node
        self.peers: List[int] = list(peers)
        if node.node_id not in self.peers:
            raise ValueError("broadcast endpoint must be a member of its peer set")
        self.keychain = keychain
        self.key = key
        #: Re-ACK a byte-identical duplicate PREPARE.  Off by default (a
        #: duplicate is noise in a reliable-transport world); a crashed
        #: broadcaster that rebroadcasts a pre-crash batch after recovery
        #: needs the fresh ACKs to rebuild its quorum, so live clusters
        #: running with persistence enable this (``brb_resend_acks``).
        self.resend_acks = resend_acks
        #: Optional predicate ``guard(origin, seq, payload) -> bool`` run
        #: before ACKing a PREPARE.  Listing 6's conflict check ("verifies
        #: whether there exists a' != a previously received for identifier
        #: (s, ts)") is stated on *payment* identifiers; with batching the
        #: payment layer owns that state, so it installs the check here.
        self.ack_guard = ack_guard
        self.n = len(self.peers)
        self.f = f if f is not None else max_faulty(self.n)
        self.ack_quorum = byzantine_quorum(self.n, self.f)
        self._members = frozenset(self.peers)
        self._member_signers = frozenset(map(replica_owner, self.peers))
        #: Peers minus ourselves, in peer order — the fan-out target list.
        self._others: List[int] = [p for p in self.peers if p != node.node_id]
        node.on(SbPrepare, self._on_prepare)
        node.on(SbAck, self._on_ack)
        node.on(SbCommit, self._on_commit)

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def broadcast(self, seq: int, payload: Any, payload_bytes: int) -> None:
        size = costs.HEADER_BYTES + payload_bytes
        message = SbPrepare(seq, payload, size)
        cost = (
            costs.MESSAGE_OVERHEAD
            + costs.PER_BYTE_CPU * size
            + costs.HASH_PER_PAYMENT * _payload_items(payload)
            + costs.ECDSA_SIGN  # the receiver signs its ACK
        )
        self.node.broadcast(
            self._others, message, size=size, recv_cost=cost,
            send_cost=costs.SEND_OVERHEAD,
        )
        # Hashing + signing our own ACK costs CPU even without a send.
        self.node.charge(
            costs.HASH_PER_PAYMENT * _payload_items(payload) + costs.ECDSA_SIGN
        )
        self._handle_prepare(self.node.node_id, message)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _on_prepare(self, src: int, message: SbPrepare) -> None:
        if src in self._members:
            self._handle_prepare(src, message)

    def _handle_prepare(self, src: int, message: SbPrepare) -> None:
        instance = self._instance((src, message.seq))
        if instance is None:
            return  # delivered already
        if instance.pending is not None:
            # Second PREPARE for the same identifier: if it conflicts, the
            # broadcaster is equivocating and we do nothing (Listing 6
            # acks only the first payload; resending an ACK would be
            # harmless but is unnecessary in an idempotent layer).  With
            # ``resend_acks`` a byte-identical duplicate *is* re-ACKed —
            # a recovered broadcaster relaunching a pre-crash batch lost
            # its collected quorum and needs the signatures again.
            if (
                self.resend_acks
                and src != self.node.node_id
                and instance.pending_digest == _payload_digest(message.payload)
            ):
                signature = sign(
                    self.key,
                    _ack_content(src, message.seq, instance.pending_digest),
                )
                ack = SbAck(src, message.seq, instance.pending_digest, signature)
                ack_cost = costs.MESSAGE_OVERHEAD + costs.ECDSA_VERIFY
                self.node.send(
                    src, ack, size=_ACK_BYTES, recv_cost=ack_cost,
                    send_cost=costs.SEND_OVERHEAD,
                )
            return
        if self.ack_guard is not None and not self.ack_guard(
            src, message.seq, message.payload
        ):
            # Listing 6: a conflicting payload is never ACKed.  The check
            # also runs for our own broadcasts: a Byzantine broadcaster
            # equivocating through this very endpoint must not count its
            # own ACK twice, or quorum intersection breaks.
            return
        payload_digest = _payload_digest(message.payload)
        instance.pending = message.payload
        instance.pending_digest = payload_digest
        signature = sign(self.key, _ack_content(src, message.seq, payload_digest))
        ack = SbAck(src, message.seq, payload_digest, signature)
        if src == self.node.node_id:
            self._apply_ack(src, ack)
        else:
            ack_cost = costs.MESSAGE_OVERHEAD + costs.ECDSA_VERIFY
            self.node.send(
                src, ack, size=_ACK_BYTES, recv_cost=ack_cost,
                send_cost=costs.SEND_OVERHEAD,
            )
        # A COMMIT may have arrived before the PREPARE; retry it now that
        # we hold the payload.
        if instance.buffered_commit is not None:
            buffered = instance.buffered_commit
            instance.buffered_commit = None
            self._apply_commit(buffered)

    def _on_ack(self, src: int, message: SbAck) -> None:
        if src in self._members:
            self._apply_ack(src, message)

    def _apply_ack(self, src: int, message: SbAck) -> None:
        if message.origin != self.node.node_id:
            return  # ACKs only matter to the broadcaster
        instance = self._instances.get((message.origin, message.seq))
        if instance is None or instance.committed:
            # Never broadcast, or quorum already gathered and COMMIT sent
            # (then perhaps delivered): late ACKs cannot matter, so skip
            # the signature verification.
            return
        if message.signature.signer != replica_owner(src):
            return
        content = _ack_content(message.origin, message.seq, message.payload_digest)
        if not verify(self.keychain, message.signature, content):
            return
        bucket = instance.acks.setdefault(message.payload_digest, {})
        bucket[src] = message.signature
        if len(bucket) >= self.ack_quorum and not instance.committed:
            instance.committed = True
            self._send_commit(message.seq, message.payload_digest, bucket)

    def _send_commit(
        self, seq: int, payload_digest: Digest, bucket: Dict[int, Signature]
    ) -> None:
        proof = tuple(bucket.values())[: self.ack_quorum]
        size = costs.HEADER_BYTES + len(proof) * costs.CERT_ENTRY_BYTES
        commit = SbCommit(self.node.node_id, seq, payload_digest, proof, size)
        # Receivers verify the whole certificate: 2f+1 signature checks.
        cost = (
            costs.MESSAGE_OVERHEAD
            + costs.PER_BYTE_CPU * size
            + costs.ECDSA_VERIFY * len(proof)
        )
        self.node.broadcast(
            self._others, commit, size=size, recv_cost=cost,
            send_cost=costs.SEND_OVERHEAD,
        )
        self._apply_commit(commit)

    def _on_commit(self, src: int, message: SbCommit) -> None:
        if src in self._members:
            self._apply_commit(message)

    def _apply_commit(self, message: SbCommit) -> None:
        key = (message.origin, message.seq)
        instance = self._instance(key)
        if instance is None:
            return  # delivered already
        if instance.pending is None:
            instance.buffered_commit = message
            return
        if instance.pending_digest != message.payload_digest:
            return  # certificate for a payload we never saw: equivocation
        if not self._valid_certificate(message):
            return
        del self._instances[key]
        self.delivered.add(message.origin, message.seq)
        self._delivered_count += 1
        self.deliver_fn(message.origin, message.seq, instance.pending)

    # ------------------------------------------------------------------
    # Certificate validation
    # ------------------------------------------------------------------
    def _valid_certificate(self, message: SbCommit) -> bool:
        content = _ack_content(message.origin, message.seq, message.payload_digest)
        # Distinct-signer *count* only.  Signer identities contain strings,
        # so this set's iteration order is PYTHONHASHSEED-dependent — it
        # must never be iterated into a message or certificate (the
        # certificates themselves are built from insertion-ordered ACK
        # buckets in _send_commit).
        signers: Set[Hashable] = set()
        for signature in message.proof:
            if signature.signer not in self._member_signers:
                continue  # only a member's ACK counts toward the quorum
            if not verify(self.keychain, signature, content):
                return False
            signers.add(signature.signer)
        return len(signers) >= self.ack_quorum

"""CREDIT messages and dependency certificates (§IV-A, §V, Listings 7–10).

The signed BRB of Astro II lacks totality, enabling the *partial payments
attack*: a Byzantine representative could let only some replicas settle a
payment, leaving the beneficiary unable to spend it.  Astro II compensates
with **dependencies**: every correct replica that settles a payment
unicasts a signed CREDIT to the beneficiary's representative, and f+1
distinct CREDITs form a *dependency certificate* — unforgeable proof the
payment was accepted by the spender's shard.  Certificates ride along the
beneficiary's next outgoing payment and are materialized into balance at
settle time, with replay protection (``usedDeps``).

Certificates are also what make sharding one-step (§V): replicas of the
beneficiary's shard accept a dependency signed by f+1 replicas of the
*spender's* shard, so no 2PC is needed.

Per the paper's 2-level batching (§VI-A), a CREDIT covers a *sub-batch*
(all settled payments of one batch whose beneficiaries share a
representative) under a single signature.

Every settler ships the sub-batch by value (Listings 9–10), as core
fields (``core.payment.pack_payments``) — never with the crediting
payments' own dependencies — so a representative receives each one
``N - 1`` times and reads its columns: no copy builds a ``Payment``.

A representative holds its clients' certificates until a payment needs
them (Listing 7, attached lazily), which under load that never runs an
account low is for good.  So it does not hold certificates: f+1 CREDITs
mint one :class:`MintedSubbatch` — shard, digest, the f+1 signatures and
the sub-batch's packed core fields, held once — and a pending
certificate is a ``(record, position)`` reference into it.
:func:`certificates_of` builds the certificates when they are
attached, with one unpacked sub-batch per record; a checkpoint pickles
each record once.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..crypto import costs
from ..crypto.hashing import Digest
from ..crypto.keys import Keychain, replica_owner
from ..crypto.signatures import Signature, sign, verify
from .directory import Directory
from .payment import (
    ClientId,
    Payment,
    PaymentId,
    checked_cores,
    core_digests,
    flat_cores,
    unpack_payments,
)

__all__ = [
    "CreditBundle",
    "CreditMessage",
    "DependencyCertificate",
    "DependencyCollector",
    "MintedSubbatch",
    "certificates_of",
    "credit_content",
    "reference_pairs",
    "subbatch_digest",
    "subbatch_digest_of",
    "verify_certificate",
]


_DIGEST_MASK = 0xFFFFFFFFFFFFFFFF


def credit_content(shard_id: int, subbatch_digest: Digest) -> tuple:
    """The statement a CREDIT signature endorses: 'my shard settled this
    sub-batch'."""
    return ("credit", shard_id, subbatch_digest)


def subbatch_digest_of(payments: Sequence[Payment]) -> Digest:
    """Digest of a settled sub-batch, over the payments' core fields.

    Core fields (not full canonical forms) terminate the recursion
    payment → deps → crediting payment → its deps → …; a settled payment's
    attached certificates are already consumed and are irrelevant to the
    credit it produces.

    Combines the payments' memoized core digests instead of
    re-canonicalizing every payment: two sub-batches carry the same core
    digest sequence iff they carry the same payment content in the same
    order, which preserves the collision-freedom the certificate scheme
    relies on while making re-verification O(|sub-batch|) dictionary
    lookups.
    """
    return subbatch_digest([p.core_digest() for p in payments])


def subbatch_digest(core_digests: Sequence[int]) -> Digest:
    """:func:`subbatch_digest_of`, from the payments' core digests."""
    return hash(("subbatch", tuple(core_digests))) & _DIGEST_MASK


class CreditMessage:
    """Signed approval of a settled sub-batch (Listing 9 l.55-57).

    Unicast by each settling replica to the representative of the
    sub-batch's beneficiaries.  One signature covers the whole sub-batch
    (2-level batching, §VI-A).

    One from the wire or the WAL, or signed over a batch's columns
    (:meth:`from_cores`), keeps its sub-batch packed and leaves the
    ``payments`` slot empty: reading it builds the ``Payment`` objects,
    once; the collector reads :attr:`flat` instead.  One made by
    :meth:`create` has the slot filled.  Only one signed over columns
    here carries ``core_digests``, which spares the collector a second
    hash of what this replica settled.
    """

    __slots__ = ("shard_id", "payments", "subbatch_digest", "signature",
                 "size", "_packed", "core_digests")

    def __init__(
        self,
        shard_id: int,
        payments: Tuple[Payment, ...],
        signature: Signature,
        subbatch_digest: Optional[Digest] = None,
    ) -> None:
        self.shard_id = shard_id
        self.payments = payments
        # The digest is derivable from ``payments``; accepting it as an
        # argument avoids recomputing an O(|sub-batch|) hash per message.
        self.subbatch_digest = (
            subbatch_digest if subbatch_digest is not None
            else subbatch_digest_of(payments)
        )
        self.signature = signature
        self.size = (
            costs.HEADER_BYTES + costs.SIGNATURE_BYTES
            + costs.PAYMENT_BYTES * len(payments)
        )
        self._packed: Optional[Tuple[tuple, tuple]] = None
        self.core_digests: Optional[Sequence[int]] = None

    def __getattr__(self, name: str):
        # Reached only for an empty slot: ``payments`` of a wire-built
        # message.  A sub-batch that does not unpack raises ValueError.
        if name != "payments":
            raise AttributeError(name)
        payments = self.payments = unpack_payments(*self._packed)
        return payments

    @classmethod
    def create(
        cls, key, shard_id: int, payments: Sequence[Payment]
    ) -> "CreditMessage":
        payments = tuple(payments)
        batch_digest = subbatch_digest_of(payments)
        signature = sign(key, credit_content(shard_id, batch_digest))
        return cls(shard_id, payments, signature, subbatch_digest=batch_digest)

    @staticmethod
    def from_cores(key, shard_id: int, flat: tuple, core_digests: Sequence[int]):
        """Sign a sub-batch given as flat core fields and core digests."""
        batch_digest = subbatch_digest(core_digests)
        signature = sign(key, credit_content(shard_id, batch_digest))
        message = _credit_from_wire(shard_id, flat, (), signature, batch_digest)
        message.core_digests = core_digests
        return message

    @property
    def flat(self) -> tuple:
        """The sub-batch's core fields (``core.payment.flat_cores``)."""
        packed = self._packed
        return flat_cores(self.payments) if packed is None else packed[0]

    def __reduce__(self):
        # Cross-process form (TCP framing, WAL): the sub-batch's core
        # fields, all that signature and digest bind.  The digest ships
        # along: it is a pure function of content and the shared process
        # hash seed, and recomputing it per copy would repeat an
        # O(|sub-batch|) hash at the receiver.
        return (
            _credit_from_wire,
            (self.shard_id, self.flat, (), self.signature,
             self.subbatch_digest),
        )


def _credit_from_wire(
    shard_id: int,
    flat: tuple,
    extras: tuple,
    signature: Signature,
    subbatch_digest: Digest,
) -> CreditMessage:
    """Inverse of :meth:`CreditMessage.__reduce__`: nothing is unpacked
    here, so a malformed sub-batch surfaces where it is read.  Older WAL
    records carry the payouts' ``extras`` too, and still replay."""
    message = CreditMessage.__new__(CreditMessage)
    message.shard_id = shard_id
    message.subbatch_digest = subbatch_digest
    message.signature = signature
    count = len(flat) // 4 if flat.__class__ is tuple else 0
    message.size = (
        costs.HEADER_BYTES + costs.SIGNATURE_BYTES + costs.PAYMENT_BYTES * count
    )
    message._packed = (flat, extras)
    message.core_digests = None
    return message


class CreditBundle:
    """Several :class:`CreditMessage`s shipped as one network message.

    The cross-delivery CREDIT coalescer is a *transport* window: every
    sub-batch keeps its per-delivery composition, digest, and signature
    (so each settler produces bit-identical digests and the f+1 matching
    rule of :class:`DependencyCollector` works exactly as with per-delivery
    unicasts), and only the envelopes are merged — one bundle per
    (settling replica → representative) pair per window amortizes the
    per-message network and CPU overhead.  Coalescing sub-batch *content*
    across deliveries instead would anchor sub-batch boundaries to each
    settler's local delivery times, which under pair-varying WAN latency
    slices the settled-payment stream differently at every settler:
    digests then never match and certificates stop minting.
    """

    __slots__ = ("messages", "size")

    #: Envelope framing (count + shard routing); the per-sub-batch
    #: digest/signature framing stays inside each message's own ``size``.
    HEADER_BYTES = 16

    def __init__(self, messages: Tuple[CreditMessage, ...]) -> None:
        self.messages = messages
        size = self.HEADER_BYTES
        for message in messages:
            size += message.size
        self.size = size

    def __iter__(self):
        return iter(self.messages)

    def __len__(self) -> int:
        return len(self.messages)

    def __reduce__(self):
        # Compact cross-process pickling (TCP framing, WAL).
        return (CreditBundle, (self.messages,))


class DependencyCertificate:
    """f+1 signed approvals proving one incoming payment exists (§IV-A).

    ``payment`` is the crediting payment; ``subbatch`` is the sub-batch the
    signatures cover (membership of ``payment`` in it is part of
    verification); ``signatures`` are the f+1 distinct replica signatures
    over the sub-batch.
    """

    __slots__ = ("payment", "shard_id", "subbatch", "subbatch_digest",
                 "signatures")

    def __init__(
        self,
        payment: Payment,
        shard_id: int,
        subbatch: Tuple[Payment, ...],
        signatures: Tuple[Signature, ...],
        subbatch_digest: Optional[Digest] = None,
    ) -> None:
        self.payment = payment
        self.shard_id = shard_id
        self.subbatch = subbatch
        self.subbatch_digest = (
            subbatch_digest if subbatch_digest is not None
            else subbatch_digest_of(subbatch)
        )
        self.signatures = signatures

    def __reduce__(self):
        # Cross-process form (TCP framing, WAL): core fields only — all
        # that the digest, ``__eq__`` and ``verify_certificate`` bind.
        # The crediting payments' own ``deps`` never ship, or every hop
        # of a credit-funded chain would re-embed the history before it
        # (``Payment.core``).
        return (
            _certificate_from_wire,
            (self.payment.core, self.shard_id,
             flat_cores(self.subbatch), self.signatures,
             self.subbatch_digest),
        )

    @property
    def dep_id(self) -> PaymentId:
        """Identifier under which replay protection tracks this dependency."""
        return self.payment.identifier

    @property
    def amount(self) -> int:
        return self.payment.amount

    @property
    def beneficiary(self) -> ClientId:
        return self.payment.beneficiary

    @property
    def wire_bytes(self) -> int:
        """Serialized size: payment reference plus the f+1 signatures."""
        return 40 + len(self.signatures) * costs.CERT_ENTRY_BYTES

    def canonical(self) -> tuple:
        # Not memoized: xlogs keep a payout's certificates for good.
        return (
            "depcert",
            self.shard_id,
            self.payment.core,
            self.subbatch_digest,
            tuple(s.canonical() for s in self.signatures),
        )

    def __eq__(self, other: object) -> bool:
        # Value equality: two unpickled copies of one certificate (and so
        # of any payout carrying it, via ``Payment.__eq__``'s ``deps ==``)
        # are the same certificate to the live monitor's convergence check.
        return (
            isinstance(other, DependencyCertificate)
            and self.shard_id == other.shard_id
            and self.payment.core == other.payment.core
            and self.subbatch_digest == other.subbatch_digest
            and self.signatures == other.signatures
        )

    def __hash__(self) -> int:
        return hash(
            (self.shard_id, self.payment.core, self.subbatch_digest,
             self.signatures)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DependencyCertificate {self.payment!r} "
            f"sigs={len(self.signatures)} shard={self.shard_id}>"
        )


def _certificate_from_wire(
    core: tuple,
    shard_id: int,
    flat: tuple,
    signatures: Tuple[Signature, ...],
    subbatch_digest: Digest,
) -> DependencyCertificate:
    """Inverse of :meth:`DependencyCertificate.__reduce__` (malformed
    columns raise, which the frame decoder turns into ``FrameError``)."""
    spender, seq, beneficiary, amount = core
    return DependencyCertificate(
        Payment(spender, seq, beneficiary, amount), shard_id,
        unpack_payments(flat), signatures, subbatch_digest,
    )


class MintedSubbatch:
    """A sub-batch that reached f+1 matching CREDITs, held once.

    ``flat`` is the sub-batch's core fields in order
    (``core.payment.flat_cores``: four per payment), so payment
    ``position`` is ``flat[4·position : 4·position + 4]``.  A pending
    certificate is ``(record, position)``; the certificate itself is
    built when it is attached (:func:`certificates_of`).  Pickled, a
    record is its four fields, and one pickle writes it once however many
    certificates point into it.
    """

    __slots__ = ("shard_id", "subbatch_digest", "signatures", "flat")

    def __init__(
        self,
        shard_id: int,
        subbatch_digest: Digest,
        signatures: Tuple[Signature, ...],
        flat: tuple,
    ) -> None:
        self.shard_id = shard_id
        self.subbatch_digest = subbatch_digest
        self.signatures = signatures
        self.flat = flat

    def __reduce__(self):
        return (
            MintedSubbatch,
            (self.shard_id, self.subbatch_digest, self.signatures, self.flat),
        )

    def dep_id(self, position: int) -> PaymentId:
        """Identifier of the crediting payment at ``position``."""
        index = 4 * position
        return (self.flat[index], self.flat[index + 1])

    def beneficiary(self, position: int) -> ClientId:
        return self.flat[4 * position + 2]

    def amount(self, position: int) -> int:
        return self.flat[4 * position + 3]


def reference_pairs(references: Sequence[Any]):
    """The ``(record, position)`` pairs of a representative's pending
    list, which holds them flat — ``[record, position, record, position,
    …]`` — so a pending certificate costs two list slots, not a tuple."""
    items = iter(references)
    return zip(items, items)


def certificates_of(
    references: Sequence[Any],
) -> Tuple[DependencyCertificate, ...]:
    """The certificates a flat pending list refers to, in its order, each
    record's sub-batch unpacked once and shared by its certificates."""
    subbatches: Dict[MintedSubbatch, Tuple[Payment, ...]] = {}
    certificates = []
    for record, position in reference_pairs(references):
        subbatch = subbatches.get(record)
        if subbatch is None:
            subbatch = subbatches[record] = unpack_payments(record.flat)
        certificates.append(
            DependencyCertificate(
                subbatch[position], record.shard_id, subbatch,
                record.signatures, record.subbatch_digest,
            )
        )
    return tuple(certificates)


def verify_certificate(
    cert: DependencyCertificate, directory: Directory, keychain: Keychain
) -> bool:
    """Full validity check: signatures, signer membership, payment membership.

    A certificate is valid iff it carries f+1 *distinct* signatures by
    replicas of the claimed (spender's) shard over the sub-batch content,
    and the credited payment is a member of that sub-batch.
    """
    try:
        members = set(directory.members(cert.shard_id))
        needed = directory.faulty_bound(cert.shard_id) + 1
    except KeyError:
        return False
    # Signature-count bounds, checked before any signature is examined:
    # more than f+1 signatures can only be attacker padding (a Byzantine
    # representative inflating every verifier's CPU — f+1 distinct valid
    # signers already prove the sub-batch), and fewer than f+1 can never
    # reach the distinct-signer threshold.  O(1) rejection keeps the
    # per-certificate verify cost bounded by the honest size.
    if not (0 < len(cert.signatures) <= needed):
        return False
    if cert.payment not in cert.subbatch:
        return False
    if subbatch_digest_of(cert.subbatch) != cert.subbatch_digest:
        return False  # claimed digest does not match the carried content
    content = credit_content(cert.shard_id, cert.subbatch_digest)
    # Distinct-signer *count* only: signer identities contain strings, so
    # the set's iteration order is PYTHONHASHSEED-dependent and must never
    # leak into certificate assembly (DependencyCollector builds
    # certificates from its insertion-ordered CREDIT buckets instead).
    signers: Set[Hashable] = set()
    for signature in cert.signatures:
        if not isinstance(signature, Signature):
            return False
        owner = signature.signer
        if not (
            isinstance(owner, tuple)
            and len(owner) == 2
            and owner[0] == "replica"
            and owner[1] in members
        ):
            return False
        if not verify(keychain, signature, content):
            return False
        signers.add(owner)
    return len(signers) >= needed


class DependencyCollector:
    """Representative-side CREDIT aggregation (Listing 10).

    Collects CREDIT messages per sub-batch, buffering the first valid
    arrival's payload as packed core fields; once f+1 distinct settling
    replicas have signed, mints one :class:`MintedSubbatch` and returns a
    ``(record, position)`` reference for each payment in it whose
    beneficiary this representative serves.  No
    :class:`DependencyCertificate` is built here: the representative
    builds them when it attaches them (:func:`certificates_of`).
    """

    #: Default compaction bounds.  ``MAX_PENDING`` caps sub-batches still
    #: short of f+1 CREDITs (a crashed settler strands its sub-batches
    #: here forever, §VI-D); ``MAX_CERTIFIED`` caps the replay-dedup
    #: memory of already-minted sub-batches.  Both evict oldest-first
    #: from insertion-ordered dicts, so eviction order is a pure function
    #: of arrival order — never of hash-seed-dependent set internals.
    MAX_PENDING = 4096
    MAX_CERTIFIED = 65536

    def __init__(
        self,
        directory: Directory,
        keychain: Keychain,
        my_node: int,
        max_pending: int = MAX_PENDING,
        max_certified: int = MAX_CERTIFIED,
    ) -> None:
        if max_pending < 1 or max_certified < 1:
            raise ValueError("compaction bounds must be >= 1")
        self.directory = directory
        self.keychain = keychain
        self.my_node = my_node
        self.max_pending = max_pending
        self.max_certified = max_certified
        #: (shard, subbatch digest) -> settling replica -> signature
        self._partial: Dict[Tuple[int, Digest], Dict[int, Signature]] = {}
        #: Core fields (``flat_cores``) of the sub-batches still short of
        #: f+1 CREDITs: what the first valid arrival carried.
        self._payments: Dict[Tuple[int, Digest], tuple] = {}
        #: Insertion-ordered (dict-as-FIFO): certified sub-batch key ->
        #: settler node ids whose CREDITs are still outstanding.
        #: Straggler CREDITs of a minted sub-batch are dropped here
        #: instead of re-minting (a re-mint would double-inflate the
        #: representative's projected balances).  An entry retires as
        #: soon as every settler has reported: no honest straggler can
        #: arrive after that, and a re-mint needs f+1 *distinct* signers
        #: while at most f Byzantine replicas can resend — so retirement
        #: is replay-safe and steady-state size tracks in-flight
        #: sub-batches only.  The FIFO cap backstops keys whose
        #: remaining settlers crashed (§VI-D); evicting one is bounded
        #: damage: if its stragglers arrive anyway, the worst case is a
        #: re-minted certificate inflating the *optimistic* projection —
        #: the over-projected payments are rejected at settle (Listing 9
        #: l.49) and settled value stays replay-protected by usedDeps.
        #: The per-key sets are never iterated (membership/discard/len
        #: only), so they cannot leak hash-seed-dependent order.
        self._certified: Dict[Tuple[int, Digest], Set[int]] = {}
        #: Eviction counters (observability / memory tests).
        self.evicted_pending = 0
        self.evicted_certified = 0
        #: Sub-batches that reached f+1 matching CREDITs (observability:
        #: certificate production must not degrade when transport-level
        #: coalescing is enabled).
        self.minted_subbatches = 0
        #: shard -> (member set, f+1) — shard membership is static for the
        #: collector's lifetime and consulted once per CREDIT message.
        self._shard_info: Dict[int, Tuple[Set[int], int]] = {}

    def _shard_lookup(self, shard: int) -> Optional[Tuple[Set[int], int]]:
        info = self._shard_info.get(shard)
        if info is None:
            try:
                members = set(self.directory.members(shard))
                needed = self.directory.faulty_bound(shard) + 1
            except KeyError:
                return None
            info = self._shard_info[shard] = (members, needed)
        return info

    def add_credit(
        self, src: int, message: CreditMessage
    ) -> List[Tuple[MintedSubbatch, int]]:
        """Process one CREDIT; returns the ``(record, position)``
        references it minted for this representative's clients (empty
        unless it was the f+1-th)."""
        shard = message.shard_id
        info = self._shard_lookup(shard)
        if info is None:
            return []
        members, needed = info
        if src not in members:
            return []
        key = (shard, message.subbatch_digest)
        outstanding = self._certified.get(key)
        if outstanding is not None:
            # Straggler for an already-minted sub-batch: retire its slot
            # before any signature work (``src`` is transport-authentic,
            # and a settler clearing only its *own* slot early gains
            # nothing).  Once every settler has reported, the dedup
            # entry is replay-safe to drop — see ``_certified``.
            outstanding.discard(src)
            if not outstanding:
                del self._certified[key]
            return []
        content = credit_content(shard, message.subbatch_digest)
        if message.signature.signer != replica_owner(src):
            return []
        if not verify(self.keychain, message.signature, content):
            return []
        bucket = self._partial.get(key)
        if bucket is None:
            # The signature only covers the *claimed* digest; a Byzantine
            # settler can validly sign digest A while shipping payments
            # B.  Unchecked, a mismatched first arrival would poison the
            # ``_payments`` buffer: the collector would mint certificates
            # that ``verify_certificate`` rejects at settle time — *after*
            # ``_apply_credit`` permanently inflated the representative's
            # projected balances.  Checked only here, where the payload is
            # buffered (later arrivals' signatures endorse the digest it
            # matches).  Checked columns have interned ids; a decoded
            # frame's are its own copies.
            flat, digests = message.flat, message.core_digests
            if digests is None:  # not signed here: check what arrived
                try:
                    flat, _ = checked_cores(flat)
                except ValueError:
                    return []  # a sub-batch that does not unpack: as forged
                digests = core_digests(flat)
            if subbatch_digest(digests) != message.subbatch_digest:
                return []
            bucket = self._partial[key] = {}
            self._payments[key] = flat
            if len(self._partial) > self.max_pending:
                self._evict_oldest_pending()
        bucket[src] = message.signature
        if len(bucket) < needed:
            return []
        remaining = set(members)
        remaining.difference_update(bucket)
        if remaining:
            self._certified[key] = remaining
            if len(self._certified) > self.max_certified:
                self._certified.pop(next(iter(self._certified)))
                self.evicted_certified += 1
        signatures = tuple(bucket.values())[:needed]
        record = MintedSubbatch(
            shard, key[1], signatures, self._payments.pop(key)
        )
        self._partial.pop(key, None)
        self.minted_subbatches += 1
        rep_of, me = self.directory.rep_of, self.my_node
        return [
            (record, position)
            for position, beneficiary in enumerate(record.flat[2::4])
            if rep_of(beneficiary) == me
        ]

    def _evict_oldest_pending(self) -> None:
        """Drop the oldest incomplete sub-batch (GC for stranded CREDITs).

        A sub-batch whose settlers crashed before f+1 CREDITs arrived
        would otherwise pin its payments and partial signatures forever.
        Dropping is safe: certificates are an optimization of *liveness*
        — if the remaining CREDITs ever do arrive, collection simply
        restarts from zero signatures.
        """
        oldest = next(iter(self._partial))
        del self._partial[oldest]
        self._payments.pop(oldest, None)
        self.evicted_pending += 1

    def capture(self) -> Dict[str, Any]:
        """Picklable copy of the aggregation state — what a snapshot
        keeps.  The directory, the keychain (every replica's signing
        secret) and the bounds are the owning replica's, not state."""
        return {
            "partial": {k: dict(sigs) for k, sigs in self._partial.items()},
            "payments": dict(self._payments),
            "certified": {k: set(left) for k, left in self._certified.items()},
            "evicted_pending": self.evicted_pending,
            "evicted_certified": self.evicted_certified,
            "minted_subbatches": self.minted_subbatches,
        }

    def refill(self, data: Mapping[str, Any]) -> None:
        """Replace the aggregation state with a :meth:`capture`."""
        self._partial = {k: dict(sigs) for k, sigs in data["partial"].items()}
        self._payments = dict(data["payments"])
        self._certified = {
            k: set(left) for k, left in data["certified"].items()
        }
        self.evicted_pending = data["evicted_pending"]
        self.evicted_certified = data["evicted_certified"]
        self.minted_subbatches = data["minted_subbatches"]

    @property
    def pending_subbatches(self) -> int:
        """Incomplete sub-batches currently buffered (memory tests)."""
        return len(self._partial)

    @property
    def certified_count(self) -> int:
        """Certified keys still awaiting straggler CREDITs (dedup state)."""
        return len(self._certified)

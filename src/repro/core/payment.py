"""Payment operations and their identifiers (§II, Figure 1).

A payment specifies its *spender*, the *sequence number* the spender
assigned, the *beneficiary*, and the *amount*.  The pair
``(spender, seq)`` is the payment's identifier (§IV) — the unit on which
the broadcast layer's agreement property is stated, and the key for
double-spend prevention: at most one payment per identifier ever settles.

A payment *sequence* — a batch's items, a CREDIT's sub-batch, the
sub-batch a certificate covers — has one wire form, owned here:
:func:`pack_payments` / :func:`unpack_payments`.
"""

from __future__ import annotations

from itertools import chain
from sys import intern
from typing import Hashable, Optional, Sequence, Tuple

from ..crypto import costs

__all__ = [
    "Payment",
    "PaymentId",
    "ClientId",
    "flat_cores",
    "pack_payments",
    "unpack_payments",
]

#: Clients are identified by any hashable id (ints in benchmarks,
#: strings in examples).
ClientId = Hashable

#: A payment identifier: (spender, sequence number).
PaymentId = Tuple[ClientId, int]

_MASK = 0xFFFFFFFFFFFFFFFF


class Payment:
    """One transfer of ``amount`` from ``spender`` to ``beneficiary``.

    ``deps`` carries the dependency certificates Astro II attaches to an
    outgoing payment (Listing 7); it is always empty in Astro I.
    ``submitted_at`` is measurement metadata (set by load drivers) and is
    excluded from the canonical form, so it never affects digests or
    signatures.

    Payments are immutable.  An instance lives while its payment is in
    flight (batches, WAL records, CREDIT sub-batches); an xlog keeps a
    settled one as two column cells and rebuilds it on demand.  It holds
    what is read per payment (the identifier, core tuple, wire size and
    memoized core digest) and shares its interned string ids with every
    payment, and xlog column, naming them.  The full canonical form and
    digest are computed on demand.
    """

    __slots__ = (
        "spender",
        "seq",
        "beneficiary",
        "amount",
        "deps",
        "submitted_at",
        "identifier",
        "core",
        "wire_bytes",
        "_core_digest",
    )

    def __init__(
        self,
        spender: ClientId,
        seq: int,
        beneficiary: ClientId,
        amount: int,
        deps: tuple = (),
        submitted_at: Optional[float] = None,
    ) -> None:
        if seq.__class__ is not int or amount.__class__ is not int:
            raise TypeError(f"seq and amount must be int: {seq!r}, {amount!r}")
        if spender.__class__ is str:
            spender = intern(spender)
        if beneficiary.__class__ is str:
            beneficiary = intern(beneficiary)
        if seq < 1:
            raise ValueError(f"sequence numbers start at 1, got {seq}")
        if amount < 0:
            raise ValueError(f"negative amount: {amount}")
        self.spender = spender
        self.seq = seq
        self.beneficiary = beneficiary
        self.amount = amount
        self.deps = deps
        self.submitted_at = submitted_at
        #: (spender, seq) — the agreement unit (§IV), precomputed.
        self.identifier = (spender, seq)
        #: Flat canonical form of the transfer itself (see core_canonical).
        self.core = (spender, seq, beneficiary, amount)
        #: Serialized size: ~100 bytes (§VI-B) plus attached dependencies.
        if deps:
            wire = costs.PAYMENT_BYTES
            for dep in deps:
                wire += getattr(dep, "wire_bytes", 0)
            self.wire_bytes = wire
        else:
            self.wire_bytes = costs.PAYMENT_BYTES
        self._core_digest: Optional[int] = None

    def core_canonical(self) -> tuple:
        """Canonical form of the transfer itself, excluding dependencies.

        Dependency certificates bind *this* form of the payment they
        credit: a certificate must not re-embed the crediting payment's
        own dependency certificates, or canonical forms would recurse
        through the whole payment history.
        """
        return self.core

    def core_digest(self) -> int:
        """Memoized 64-bit digest of the core form (sub-batch hashing)."""
        value = self._core_digest
        if value is None:
            value = self._core_digest = hash(("payment-core", self.core)) & _MASK
        return value

    def canonical(self) -> tuple:
        if not self.deps:
            return self.core + ((),)
        return self.core + (tuple(
            dep.canonical() if hasattr(dep, "canonical") else dep
            for dep in self.deps
        ),)

    @property
    def cached_digest(self) -> int:
        """Full-content digest (consulted by ``crypto.digest``)."""
        return hash(("payment", self.canonical())) & _MASK

    def __reduce__(self):
        """Compact pickling of a *single* payment (client messages,
        snapshots); sequences travel through :func:`pack_payments`.

        Only the defining fields travel; derived forms and memoized
        digests are rebuilt by the receiver — identically, because
        replica processes share one hash seed (``transport.cluster``).
        This roughly halves the bytes per payment versus default slot
        pickling (which would ship identifier/core/wire_bytes/caches too).
        """
        return (
            Payment,
            (
                self.spender,
                self.seq,
                self.beneficiary,
                self.amount,
                self.deps,
                self.submitted_at,
            ),
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Payment)
            and self.core == other.core
            and self.deps == other.deps
        )

    def __hash__(self) -> int:
        return hash(self.core)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Payment {self.spender!r}#{self.seq}: "
            f"{self.amount} -> {self.beneficiary!r}>"
        )


def flat_cores(payments: Sequence[Payment]) -> tuple:
    """Every payment's four core fields in order: one tuple of ``4·k``
    scalars, the first half of :func:`pack_payments`."""
    return tuple(chain.from_iterable([p.core for p in payments]))


def pack_payments(payments: Sequence[Payment]) -> Tuple[tuple, tuple]:
    """The wire form of a payment sequence: ``(flat, extras)``.

    ``flat`` is :func:`flat_cores`, so pickle walks one container instead
    of ``k`` nested ``__reduce__`` tuples.  ``extras`` lists ``(index,
    deps, submitted_at)`` for the payments that carry either — none under
    uniform load, the credit-funded payouts under merchant load.
    """
    flat = flat_cores(payments)
    extras = tuple([
        (index, p.deps, p.submitted_at)
        for index, p in enumerate(payments)
        if p.deps or p.submitted_at is not None
    ])
    return flat, extras


def unpack_payments(flat: tuple, extras: tuple = ()) -> Tuple[Payment, ...]:
    """Rebuild the sequence :func:`pack_payments` flattened.

    The input is a peer's or a disk's: anything but ``4·k`` well-formed
    core fields and in-range extras raises :class:`ValueError`, also for
    the fields ``Payment`` refuses: a non-``int`` seq or amount, ``seq <
    1``, a negative amount.
    """
    if (
        flat.__class__ is not tuple
        or extras.__class__ is not tuple
        or len(flat) % 4
    ):
        raise ValueError("packed payments: not 4 core fields per payment")
    columns = [flat[0::4], flat[1::4], flat[2::4], flat[3::4]]
    try:
        if extras:
            count = len(flat) // 4
            deps_column: list = [()] * count
            submitted_column: list = [None] * count
            for index, deps, submitted_at in extras:
                if index.__class__ is not int or not 0 <= index < count:
                    raise ValueError(f"packed payments: no payment {index!r}")
                if deps.__class__ is not tuple:
                    raise ValueError("packed payments: deps is not a tuple")
                deps_column[index] = deps
                submitted_column[index] = submitted_at
            columns += [deps_column, submitted_column]
        return tuple(map(Payment, *columns))
    except TypeError as exc:
        raise ValueError(f"packed payments: {exc}") from exc

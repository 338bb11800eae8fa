"""Payment operations and their identifiers (§II, Figure 1).

A payment specifies its *spender*, the *sequence number* the spender
assigned, the *beneficiary*, and the *amount*.  The pair
``(spender, seq)`` is the payment's identifier (§IV) — the unit on which
the broadcast layer's agreement property is stated, and the key for
double-spend prevention: at most one payment per identifier ever settles.

A payment *sequence* — a batch's items, a CREDIT's sub-batch, the
sub-batch a certificate covers — has one wire form, owned here:
:func:`pack_payments` / :func:`unpack_payments`.  A receiving replica
reads it as columns (``brb.batching.Batch``, :func:`checked_cores`): a
``Payment`` is rebuilt only where one is read — for a confirm at the
spender's representative, and for one that waits or is rejected.
"""

from __future__ import annotations

from itertools import chain, repeat
from sys import intern
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

__all__ = [
    "Payment",
    "PaymentId",
    "ClientId",
    "checked_cores",
    "core_digests",
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
    outgoing payment (Listing 7); it is always empty in Astro I.  A
    payment carries nothing else: submission times are the client's
    (the load drivers keep them), and a batch sizes itself.

    Payments are immutable.  An instance lives where one is read: at the
    client edge (submission, confirmation), while it waits or after its
    rejection; a batch holds only columns, and an xlog keeps a settled
    payment as two column cells.  It holds the identifier, the core
    tuple and a memoized core digest, and shares its interned string ids
    with every payment and column naming them.
    """

    __slots__ = (
        "spender",
        "seq",
        "beneficiary",
        "amount",
        "deps",
        "identifier",
        "core",
        "_core_digest",
    )

    def __init__(
        self,
        spender: ClientId,
        seq: int,
        beneficiary: ClientId,
        amount: int,
        deps: tuple = (),
        _dropped: object = None,
    ) -> None:
        # ``_dropped``: a sixth field, the submission time that forms
        # pickled before payments shed it carry (older WAL records and
        # client messages); accepted so that they load, and dropped.
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
        #: (spender, seq) — the agreement unit (§IV), precomputed.
        self.identifier = (spender, seq)
        #: Canonical form of the transfer itself, excluding dependencies.
        #: Dependency certificates bind *this* form of the payment they
        #: credit: one that re-embedded the crediting payment's own
        #: certificates would recurse through the whole payment history.
        self.core = (spender, seq, beneficiary, amount)
        self._core_digest: Optional[int] = None

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
        pickling (which would ship identifier/core/caches too).
        """
        return (Payment, (*self.core, self.deps))

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
    deps)`` for the payments that carry dependency certificates — none
    under uniform load, the credit-funded payouts under merchant load.
    """
    flat = flat_cores(payments)
    extras = tuple([
        (index, p.deps) for index, p in enumerate(payments) if p.deps
    ])
    return flat, extras


def checked_cores(flat: tuple, extras: tuple = ()) -> Tuple[tuple, Dict]:
    """A peer's or a disk's packed sequence: ``flat`` with its ids
    interned, and the extras as ``position -> deps``.  What ``Payment``
    would refuse, or malformed extras — an entry that is not ``(index,
    deps)`` too —, raise :class:`ValueError`."""
    if (flat.__class__ is not tuple or extras.__class__ is not tuple
            or len(flat) % 4):
        raise ValueError("packed payments: not 4 core fields per payment")
    seqs, amounts = flat[1::4], flat[3::4]
    if {*map(type, seqs), *map(type, amounts)} - {int} or seqs and (
        min(seqs) < 1 or min(amounts) < 0
    ):
        raise ValueError("packed payments: a seq or amount out of range")
    by_position: Dict[int, tuple] = {}
    try:
        for index, deps in extras:
            if index.__class__ is not int or not 0 <= index < len(seqs):
                raise ValueError(f"packed payments: no payment {index!r}")
            if deps.__class__ is not tuple:
                raise ValueError("packed payments: deps is not a tuple")
            by_position[index] = deps
    except TypeError as exc:
        raise ValueError(f"packed payments: {exc}") from exc
    cores = list(flat)
    try:  # str ids, interned at C speed
        cores[0::4], cores[2::4] = map(intern, flat[0::4]), map(intern, flat[2::4])
    except TypeError:
        cores = [intern(f) if f.__class__ is str else f for f in flat]
    return tuple(cores), by_position


def unpack_payments(flat: tuple, extras: tuple = ()) -> Tuple[Payment, ...]:
    """Rebuild the sequence :func:`pack_payments` flattened; what
    :func:`checked_cores` refuses raises :class:`ValueError`."""
    flat, by_position = checked_cores(flat, extras)
    fields = iter(flat)
    return tuple([
        Payment(*core, by_position.get(index, ()))
        for index, core in enumerate(zip(fields, fields, fields, fields))
    ])


def core_digests(flat: tuple) -> List[int]:
    """Every payment's :meth:`Payment.core_digest`, from flat cores."""
    fields = iter(flat)
    cores = zip(fields, fields, fields, fields)
    return list(map(_MASK.__and__, map(hash, zip(repeat("payment-core"), cores))))

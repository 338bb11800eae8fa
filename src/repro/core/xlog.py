"""Exclusive logs — the paper's core abstraction (§II).

An xlog is an append-only log of the outgoing payments of exactly one
client, ordered by the sequence numbers the client herself assigns.  Only
the owner may append (enforced here structurally), which is the property
that lets Astro replicate xlogs with broadcast instead of consensus: there
are never concurrent appends to one log.

Storing the full log (rather than just balance + sequence number) is what
enables auditability and reconfiguration (§II, §A).  It is stored as
columns, the seq being the position: a settled payment is one beneficiary
slot and one int64 amount, and the dependency certificates of the few
payments that carry any are kept by seq.  Point readers rebuild a
:class:`Payment`; bulk readers (captures, monitor views) read the columns.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Tuple

from .payment import ClientId, Payment

__all__ = ["ExclusiveLog", "XlogViolation", "columns_prefix"]

Columns = Tuple[tuple, array, Dict[int, tuple]]


class XlogViolation(Exception):
    """An append that would violate xlog exclusivity or ordering."""


class ExclusiveLog:
    """Append-only, gap-free log of one client's outgoing payments."""

    __slots__ = ("owner", "beneficiaries", "amounts", "deps")

    def __init__(self, owner: ClientId) -> None:
        self.owner = owner
        #: The ``seq``-th payment's beneficiary is at ``seq - 1``; the ids
        #: are the payments' own, interned and shared.
        self.beneficiaries: List[ClientId] = []
        self.amounts = array("q")
        #: seq -> dependency certificates, for the payments carrying any.
        self.deps: Dict[int, tuple] = {}

    def append(self, core: tuple, deps: tuple = ()) -> None:
        """Append the owner's next payment, given as its ``(spender, seq,
        beneficiary, amount)`` core and dependency certificates.

        Raises :class:`XlogViolation` if the payment belongs to a
        different spender or does not carry the next sequence number —
        both indicate a bug in the replica, not adversarial input, since
        replicas validate before appending.
        """
        spender, seq, beneficiary, amount = core
        if spender != self.owner:
            raise XlogViolation(
                f"payment by {spender!r} appended to xlog of {self.owner!r}"
            )
        expected = len(self.beneficiaries) + 1
        if seq != expected:
            raise XlogViolation(
                f"xlog of {self.owner!r} expected seq {expected}, got {seq}"
            )
        self.beneficiaries.append(beneficiary)
        self.amounts.append(amount)
        if deps:
            self.deps[expected] = deps

    def columns(self) -> Columns:
        """A copy of ``(beneficiaries, amounts, deps)``, at C speed."""
        return tuple(self.beneficiaries), self.amounts[:], dict(self.deps)

    @property
    def last_seq(self) -> int:
        """Sequence number of the latest entry (0 when empty)."""
        return len(self.beneficiaries)

    def entries(self) -> Tuple[Payment, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.beneficiaries)

    def __iter__(self) -> Iterator[Payment]:
        return map(self.__getitem__, range(len(self.beneficiaries)))

    def __getitem__(self, index: int) -> Payment:
        """The payment at ``index``, rebuilt equal to the appended one."""
        seq = range(1, len(self.beneficiaries) + 1)[index]
        return Payment(
            self.owner, seq, self.beneficiaries[seq - 1],
            self.amounts[seq - 1], self.deps.get(seq, ()),
        )

    def is_prefix_of(self, other: "ExclusiveLog") -> bool:
        """True if this log is a (possibly equal) prefix of ``other``.

        Correct replicas' copies of the same xlog are always related by
        prefix — the consistency condition tests assert.
        """
        return (
            self.owner == other.owner
            and len(self) <= len(other)
            and self.columns() == columns_prefix(other.columns(), len(self))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ExclusiveLog owner={self.owner!r} len={len(self)}>"


def columns_prefix(columns: Columns, size: int) -> Columns:
    """The first ``size`` payments of an :meth:`ExclusiveLog.columns`."""
    beneficiaries, amounts, deps = columns
    deps = {seq: certs for seq, certs in deps.items() if seq <= size}
    return beneficiaries[:size], amounts[:size], deps

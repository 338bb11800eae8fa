"""Client ↔ representative messages.

Clients are lightweight, intermittently connected participants (§II); they
exchange exactly two message kinds with their representative: a payment
submission and (optionally) a settlement confirmation.  A balance query
is a read of the representative's local state (§III "Checking the
Balance"): :meth:`~repro.core.replica.AstroReplicaBase.balance_of`.
"""

from __future__ import annotations

from .payment import Payment

__all__ = ["ClientSubmit", "ClientConfirm"]

CONFIRM_BYTES = 64


def _fields(payment: Payment) -> tuple:
    """A payment's wire fields, flat: the four core fields, then ``deps``
    and ``submitted_at`` only when either is set."""
    if payment.deps or payment.submitted_at is not None:
        return (*payment.core, payment.deps, payment.submitted_at)
    return payment.core


class ClientSubmit:
    """A payment submitted by a client to her representative (Listing 1)."""

    __slots__ = ("payment",)

    def __init__(self, payment: Payment) -> None:
        self.payment = payment

    def __reduce__(self):
        # Cross-process form (TCP framing): the payment's fields, flat.
        # Decoding runs ``Payment``'s constructor, so its type checks and
        # id interning apply to what a peer sends.
        return (_submit_from_wire, _fields(self.payment))


class ClientConfirm:
    """Settlement notification from representative to client (§III)."""

    __slots__ = ("payment", "settled_at")

    def __init__(self, payment: Payment, settled_at: float) -> None:
        self.payment = payment
        self.settled_at = settled_at

    def __reduce__(self):
        return (_confirm_from_wire, (self.settled_at, *_fields(self.payment)))


def _submit_from_wire(*fields) -> ClientSubmit:
    return ClientSubmit(Payment(*fields))


def _confirm_from_wire(settled_at: float, *fields) -> ClientConfirm:
    return ClientConfirm(Payment(*fields), settled_at)

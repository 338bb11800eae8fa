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


class ClientSubmit:
    """A payment submitted by a client to her representative (Listing 1)."""

    __slots__ = ("payment",)

    def __init__(self, payment: Payment) -> None:
        self.payment = payment


class ClientConfirm:
    """Settlement notification from representative to client (§III)."""

    __slots__ = ("payment", "settled_at")

    def __init__(self, payment: Payment, settled_at: float) -> None:
        self.payment = payment
        self.settled_at = settled_at

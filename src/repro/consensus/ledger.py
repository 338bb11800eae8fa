"""Payment execution on top of a total order.

The consensus baseline executes payments in decided-sequence order.  It
is Astro's :class:`~repro.core.replica.ApprovalQueue` — the same account
state, the same approval rule, Astro I's settle loop — fed one ordered
payment at a time: like Astro I, an insufficiently funded (or
out-of-client-order) payment waits until the state allows it, and total
order makes the outcome identical at every correct replica.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.interning import ClientInterner
from ..core.payment import ClientId, Payment
from ..core.replica import ApprovalQueue

__all__ = ["PaymentLedger"]


class PaymentLedger(ApprovalQueue):
    """Sequentially applies totally-ordered payments to account state."""

    def __init__(
        self,
        genesis: Dict[ClientId, int],
        on_settle: Optional[Callable[[Payment], None]] = None,
        interner: Optional[ClientInterner] = None,
    ) -> None:
        super().__init__(genesis, interner)
        self.on_settle = on_settle

    def apply(self, payment: Payment) -> None:
        """Apply one ordered payment (settling everything it unblocks)."""
        spender = payment.spender
        self._awaiting_seq.setdefault(spender, {})[payment.seq] = payment
        self._drain((spender,))

    def _confirms_for(self, spender: ClientId) -> bool:
        return self.on_settle is not None  # every replica replies

    def _confirm(self, payment: Payment) -> None:
        self.on_settle(payment)

    @property
    def waiting_count(self) -> int:
        return sum(len(queue) for queue in self._awaiting_seq.values())

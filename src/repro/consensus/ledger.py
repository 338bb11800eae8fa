"""Payment execution on top of a total order.

The consensus baseline executes payments in decided-sequence order.  It
is Astro's :class:`~repro.core.replica.ApprovalQueue` — the same account
state, the same approval rule, the same drain loop — fed one ordered
payment at a time: like Astro I, an insufficiently funded (or
out-of-client-order) payment waits until the state allows it, and total
order makes the outcome identical at every correct replica.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Optional

from ..core.interning import ClientInterner
from ..core.payment import ClientId, Payment
from ..core.replica import WAIT, ApprovalQueue

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
        awaiting = self._awaiting_seq
        queue = awaiting.get(spender)
        if queue is None:
            queue = awaiting[spender] = {}
        queue[payment.seq] = payment
        self._drain(deque((spender,)))

    def _settle(self, index: int, core: tuple, payment: Optional[Payment],
                position: Optional[int]) -> Any:
        # Executes once per payment per replica — the consensus baseline's
        # hottest code.  A payment here always waited in the queue.
        if not self.state.try_settle_spend(index, core, payment.deps, True):
            return WAIT
        self.settled_count += 1
        if self.on_settle is not None:
            self.on_settle(payment)
        return core[2]

    @property
    def waiting_count(self) -> int:
        return sum(len(queue) for queue in self._awaiting_seq.values())

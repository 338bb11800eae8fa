"""Merchant workload: many-to-few purchases plus tight-balance payouts.

Payment traffic in retail networks is *many-to-few*: a large consumer
population pays into a small merchant set, and merchants periodically
pay value back out (settlement to suppliers, refunds, payroll).  Two
properties make this the interesting regime for Astro:

* deposit fan-in concentrates on few accounts (the beneficiary-side
  stress the uniform workload never produces), and
* merchants start with *tight* balances, so their payouts are funded by
  incoming purchases rather than genesis money.  In Astro II that is
  exactly the credit-funded-spend path: the merchant's replicas must
  mint dependency certificates (f+1 CREDIT messages, Listing 7) before
  a payout can settle, and settled payouts carry non-empty ``deps``.

Draws are deterministic via :func:`repro.sim.rng.stable_rng`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.payment import ClientId
from ..sim.rng import stable_rng

__all__ = [
    "MERCHANT_BALANCE",
    "MERCHANT_FRACTION",
    "MerchantWorkload",
    "is_merchant",
    "merchant_genesis",
    "merchant_split",
]

#: Fraction of the population that is a merchant (rounded up to >= 1).
MERCHANT_FRACTION = 0.05

#: Tight merchant genesis balance — well under one payout, so payouts
#: are funded by settled purchase income, not genesis money.
MERCHANT_BALANCE = 25


def _num_merchants(num_clients: int) -> int:
    return max(1, round(num_clients * MERCHANT_FRACTION))


def is_merchant(client: ClientId) -> bool:
    """True for ids minted by :func:`merchant_genesis` as merchants."""
    return isinstance(client, str) and client.startswith("merchant-")


def merchant_split(
    clients: Sequence[ClientId],
) -> Tuple[List[ClientId], List[ClientId]]:
    """Split a population into ``(consumers, merchants)``.

    Ids minted by :func:`merchant_genesis` split by their ``merchant-``
    prefix; any other population (``uniform_genesis``) uses its last
    :data:`MERCHANT_FRACTION` as merchants, so genesis builders and the
    workload agree on the merchant set by sharing this function.
    """
    population = list(clients)
    merchants = [c for c in population if is_merchant(c)]
    if merchants:
        return [c for c in population if not is_merchant(c)], merchants
    split = len(population) - _num_merchants(len(population))
    return population[:split], population[split:]


def merchant_genesis(num_clients: int) -> Dict[ClientId, int]:
    """Genesis with ample consumers and deliberately tight merchants.

    :data:`MERCHANT_BALANCE` is well under one payout, so almost
    every merchant payout must wait for settled purchase income
    (queued drains in Astro I / BFT, dependency certificates in
    Astro II).
    """
    if num_clients < 2:
        raise ValueError(
            "merchant_genesis needs at least two clients (one consumer "
            f"and one merchant); got {num_clients}"
        )
    merchants = _num_merchants(num_clients)
    consumers = num_clients - merchants
    genesis: Dict[ClientId, int] = {
        f"client-{i}": 10**9 for i in range(consumers)
    }
    for i in range(merchants):
        genesis[f"merchant-{i}"] = MERCHANT_BALANCE
    return genesis


class MerchantWorkload:
    """Generates purchases (consumer → merchant) and payouts (reverse).

    The population splits by id: clients named ``merchant-*`` (from
    :func:`merchant_genesis`) are merchants; with no such ids, the last
    ``MERCHANT_FRACTION`` of the given sequence is used, so the workload
    still runs over a plain ``uniform_genesis`` population.

    ``purchase_fraction`` of operations are purchases with small
    amounts; the rest are payouts whose amounts span several purchases,
    so a payout typically needs more than the merchant's settled
    balance at submission time.
    """

    def __init__(
        self,
        clients: Sequence[ClientId],
        seed: int = 0,
        purchase_fraction: float = 0.8,
        min_amount: int = 1,
        max_amount: int = 100,
        payout_min: int = 50,
        payout_max: int = 400,
    ) -> None:
        if len(clients) < 2:
            raise ValueError("need at least two clients to transfer between")
        if not 0.0 < purchase_fraction < 1.0:
            raise ValueError(
                "purchase_fraction must be strictly between 0 and 1; "
                f"got {purchase_fraction}"
            )
        population = list(clients)
        self.consumers, self.merchants = merchant_split(population)
        if not self.consumers:
            raise ValueError("merchant workload needs at least one consumer")
        self.clients = population
        self.purchase_fraction = purchase_fraction
        self.min_amount = min_amount
        self.max_amount = max_amount
        self.payout_min = payout_min
        self.payout_max = payout_max
        self._amount_span = max_amount - min_amount + 1
        self._payout_span = payout_max - payout_min + 1
        self._random = stable_rng(
            seed, "workload", "merchant", len(population)
        ).random
        self._consumer_cursor = 0
        self._merchant_cursor = 0
        #: Operation counters for reporting / tests.
        self.purchases = 0
        self.payouts = 0

    def _purchase(self) -> Tuple[ClientId, ClientId, int]:
        consumers = self.consumers
        spender = consumers[self._consumer_cursor]
        self._consumer_cursor = (self._consumer_cursor + 1) % len(consumers)
        rand = self._random
        beneficiary = self.merchants[int(rand() * len(self.merchants))]
        amount = self.min_amount + int(rand() * self._amount_span)
        self.purchases += 1
        return spender, beneficiary, amount

    def _payout(self) -> Tuple[ClientId, ClientId, int]:
        merchants = self.merchants
        spender = merchants[self._merchant_cursor]
        self._merchant_cursor = (self._merchant_cursor + 1) % len(merchants)
        rand = self._random
        beneficiary = self.consumers[int(rand() * len(self.consumers))]
        amount = self.payout_min + int(rand() * self._payout_span)
        self.payouts += 1
        return spender, beneficiary, amount

    def next(self) -> Optional[Tuple[ClientId, ClientId, int]]:
        """Next operation: purchase with ``purchase_fraction`` odds."""
        if self._random() < self.purchase_fraction:
            return self._purchase()
        return self._payout()

    def next_for(self, spender: ClientId) -> Tuple[ClientId, ClientId, int]:
        """Next payment for a fixed spender (closed-loop clients).

        Merchants emit payouts; everyone else emits purchases.
        """
        rand = self._random
        if spender in self.merchants:
            beneficiary = self.consumers[int(rand() * len(self.consumers))]
            amount = self.payout_min + int(rand() * self._payout_span)
            self.payouts += 1
            return spender, beneficiary, amount
        merchants = self.merchants
        beneficiary = merchants[int(rand() * len(merchants))]
        amount = self.min_amount + int(rand() * self._amount_span)
        self.purchases += 1
        return spender, beneficiary, amount

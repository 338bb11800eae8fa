"""Smallbank transaction family, adapted to the cryptocurrency setting.

The paper's sharded evaluation (§VI-C2) uses the Smallbank family from
BLOCKBENCH [33] — H-Store's Smallbank [25] recast so that every account is
an xlog: "we associate each client with two xlogs (for checking and
savings); thus same-client transactions at the application level appear as
full-fledged payments between two distinct xlogs".

Transaction types (H-Store Smallbank, write transactions):

* ``TransactSavings``  — deposit into savings: checking → savings;
* ``DepositChecking``  — external deposit: the shard bank → checking;
* ``SendPayment``      — transfer between two owners' checking accounts
  (the only type that may cross shards);
* ``WriteCheck``       — withdrawal: checking → the shard bank;
* ``Amalgamate``       — move savings into checking: savings → checking.

``Balance`` is a read served locally by the representative and does not
enter the broadcast layer; it is generated (and counted separately) so the
mix matches the benchmark definition.

The cross-shard probability of ``SendPayment`` is derived so that the
*overall* cross-shard fraction equals the paper's 12.5 % (§VI-C2).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from ..core.payment import ClientId

__all__ = ["SmallbankWorkload", "smallbank_genesis", "SMALLBANK_MIX"]

#: H-Store Smallbank transaction mix (weights sum to 100).
SMALLBANK_MIX: Dict[str, int] = {
    "transact_savings": 15,
    "deposit_checking": 15,
    "send_payment": 25,
    "write_check": 15,
    "amalgamate": 15,
    "balance": 15,
}

#: The paper's overall cross-shard transaction fraction (§VI-C2).
CROSS_SHARD_FRACTION = 0.125


def checking(owner: int) -> ClientId:
    return ("acct", owner, "checking")


def savings(owner: int) -> ClientId:
    return ("acct", owner, "savings")


def bank(shard: int) -> ClientId:
    return ("bank", shard)


def smallbank_genesis(
    num_owners: int, num_shards: int = 1, balance: int = 10**9
) -> Dict[ClientId, int]:
    """Genesis for ``num_owners`` account owners plus one bank per shard."""
    genesis: Dict[ClientId, int] = {}
    for owner in range(num_owners):
        genesis[checking(owner)] = balance
        genesis[savings(owner)] = balance
    for shard in range(num_shards):
        genesis[bank(shard)] = balance * max(num_owners, 1)
    return genesis


def shard_assignment(num_owners: int, num_shards: int) -> Dict[ClientId, int]:
    """Both xlogs of an owner live in the same shard (§VI-C2)."""
    assignment: Dict[ClientId, int] = {}
    for owner in range(num_owners):
        shard = owner % num_shards
        assignment[checking(owner)] = shard
        assignment[savings(owner)] = shard
    for shard in range(num_shards):
        assignment[bank(shard)] = shard
    return assignment


class SmallbankWorkload:
    """Generates Smallbank operations as (spender, beneficiary, amount).

    ``next()`` returns ``None`` for Balance queries (reads never enter the
    payment pipeline); callers count them via :attr:`balance_queries`.
    """

    def __init__(
        self,
        num_owners: int,
        num_shards: int = 1,
        seed: int = 0,
        min_amount: int = 1,
        max_amount: int = 50,
        mix: Optional[Dict[str, int]] = None,
    ) -> None:
        if num_owners < 2:
            raise ValueError("Smallbank needs at least two account owners")
        self.num_owners = num_owners
        self.num_shards = num_shards
        self.mix = dict(mix if mix is not None else SMALLBANK_MIX)
        self._rng = random.Random(seed)
        self.min_amount = min_amount
        self.max_amount = max_amount
        self._types = list(self.mix)
        self._weights = [self.mix[t] for t in self._types]
        self.balance_queries = 0
        self.cross_shard_sent = 0
        self.total_writes = 0
        # Solve for SendPayment's cross-shard probability so the overall
        # fraction of cross-shard transactions is 12.5 %.
        total = sum(self.mix.values())
        send_share = self.mix.get("send_payment", 0) / total
        if num_shards > 1 and send_share > 0:
            self.cross_probability = min(1.0, CROSS_SHARD_FRACTION / send_share)
        else:
            self.cross_probability = 0.0

    # ------------------------------------------------------------------
    def _amount(self) -> int:
        return self._rng.randint(self.min_amount, self.max_amount)

    def _owner(self) -> int:
        return self._rng.randrange(self.num_owners)

    def _shard_of_owner(self, owner: int) -> int:
        return owner % self.num_shards

    def next(self) -> Optional[Tuple[ClientId, ClientId, int]]:
        """Next operation, or ``None`` for a Balance read."""
        kind = self._rng.choices(self._types, weights=self._weights, k=1)[0]
        if kind == "balance":
            self.balance_queries += 1
            return None
        self.total_writes += 1
        owner = self._owner()
        if kind == "transact_savings":
            return checking(owner), savings(owner), self._amount()
        if kind == "deposit_checking":
            return bank(self._shard_of_owner(owner)), checking(owner), self._amount()
        if kind == "write_check":
            return checking(owner), bank(self._shard_of_owner(owner)), self._amount()
        if kind == "amalgamate":
            return savings(owner), checking(owner), self._amount()
        # send_payment: possibly cross-shard
        partner = owner
        if self.num_shards > 1 and self._rng.random() < self.cross_probability:
            while self._shard_of_owner(partner) == self._shard_of_owner(owner):
                partner = self._owner()
            self.cross_shard_sent += 1
        else:
            while partner == owner or (
                self.num_shards > 1
                and self._shard_of_owner(partner) != self._shard_of_owner(owner)
            ):
                partner = self._owner()
        return checking(owner), checking(partner), self._amount()

    @property
    def observed_cross_fraction(self) -> float:
        if self.total_writes == 0:
            return 0.0
        return self.cross_shard_sent / self.total_writes

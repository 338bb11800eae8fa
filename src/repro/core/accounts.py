"""Replicated account state: balances, sequence numbers, xlogs.

This is the local state every replica maintains (Listing 2):
``sn[..]`` (last settled sequence number per client), ``bal[..]``
(balances), and ``xlogs[..]``, over one set of clients.  The same
structure backs Astro I, Astro II, and the consensus baseline — the
systems differ in *how* they agree on what to apply, not in the applied
state.

Storage layout: client ids are interned to dense int indices
(:class:`~repro.core.interning.ClientInterner`, typically shared by all
replicas of a system), and balances and sequence numbers live in two
flat ``array('q')`` slabs of equal length — 16 bytes per client per
replica.  The members are the genesis clients (indices
``0 .. _genesis_len-1``, implicit) and then, in the order they joined,
every client the state was written for since: a credited beneficiary, a
spender, a registered client.  Reads (:meth:`~AccountState.balance`,
:meth:`~AccountState.seqnum`, :meth:`~AccountState.xlog`,
:meth:`~AccountState.accounts`) never make a client a member.  Xlogs are
materialized lazily: most of 10⁶ accounts never transact in a run, and a
member without a log reads as an empty one.

A slab slot of a non-member index is always 0, so point reads and the
balance total skip membership checks.

Values are int64: balances and sequence numbers beyond ±2⁶³ raise
``OverflowError`` (every existing workload stays ≤ ~10¹⁵).
"""

from __future__ import annotations

from array import array
from itertools import chain, islice
from typing import Any, Collection, Dict, Iterator, List, Mapping, Optional, Tuple

from .interning import ClientInterner
from .payment import ClientId
from .xlog import ExclusiveLog

__all__ = ["AccountState"]


class AccountState:
    """Balances, sequence numbers, and xlogs for one set of clients."""

    __slots__ = (
        "_interner",
        "_genesis_len",
        "_bal",
        "_seq",
        "_members",
        "_xlog_map",
        "_snap_order",
    )

    def __init__(
        self,
        genesis: Mapping[ClientId, int],
        interner: Optional[ClientInterner] = None,
    ) -> None:
        for client, amount in genesis.items():
            if amount < 0:
                raise ValueError(
                    f"negative genesis balance for {client!r}: {amount}"
                )
        if interner is None:
            interner = ClientInterner(genesis)
        self._interner = interner
        # Indices ``0 .. _genesis_len-1`` are implicit members, in genesis
        # order: the zero-overhead common case where the (shared) interner
        # starts from this very genesis, recognized with one list compare.
        names = list(genesis)
        genesis_len = len(names)
        if interner._clients[:genesis_len] != names:
            genesis_len = 0
            for position, client in enumerate(names):
                if interner.intern(client) == position == genesis_len:
                    genesis_len += 1
        self._genesis_len = genesis_len
        self._bal = array("q", islice(genesis.values(), genesis_len))
        self._seq = array("q", bytes(8 * genesis_len))
        #: Post-genesis member indices, in the order they joined.
        self._members: Dict[int, None] = {}
        self._xlog_map: Dict[int, ExclusiveLog] = {}
        #: Cached repr-sorted member indices for :meth:`snapshot`;
        #: invalidated whenever a client joins.
        self._snap_order: Optional[List[int]] = None
        for client, amount in islice(genesis.items(), genesis_len, None):
            # An interner pre-populated with other clients: the tail of
            # the genesis set joins explicitly (rare path; the systems
            # always seed the shared interner from genesis).
            self._bal[self._member(client)] = amount

    # ------------------------------------------------------------------
    # Internal plumbing
    # ------------------------------------------------------------------
    def _indices(self) -> Iterator[int]:
        """Member indices: genesis first, then the others as they joined."""
        return chain(range(self._genesis_len), self._members)

    def _member(self, client: ClientId) -> int:
        """The index of ``client``, made a member if it is not one."""
        index = self._interner._index.get(client)
        if index is None or (
            index >= self._genesis_len and index not in self._members
        ):
            index = self.index(client)
            self._members[index] = None
            self._snap_order = None
        return index

    def _log(self, index: int, client: ClientId) -> ExclusiveLog:
        """The member at ``index``'s xlog, materialized on first use."""
        log = self._xlog_map.get(index)
        if log is None:
            log = self._xlog_map[index] = ExclusiveLog(client)
        return log

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------
    def balance(self, client: ClientId) -> int:
        index = self._interner._index.get(client)
        if index is None:
            return 0
        slab = self._bal
        return slab[index] if index < len(slab) else 0

    def seqnum(self, client: ClientId) -> int:
        index = self._interner._index.get(client)
        if index is None:
            return 0
        slab = self._seq
        return slab[index] if index < len(slab) else 0

    def knows(self, client: ClientId) -> bool:
        index = self._interner._index.get(client)
        if index is None:
            return False
        return index < self._genesis_len or index in self._members

    def xlog(self, client: ClientId) -> ExclusiveLog:
        """``client``'s xlog; a non-member's is empty and attached to
        nothing (reading it neither interns nor registers the client)."""
        if not self.knows(client):
            return ExclusiveLog(client)
        return self._log(self._interner._index[client], client)

    def accounts(self) -> Iterator[Tuple[ClientId, int, int, ExclusiveLog]]:
        """Every member's ``(client, balance, seqnum, xlog)``, genesis
        clients first, then the others in the order they joined.  A
        member without a materialized log reads a fresh empty one, which
        nothing keeps."""
        clients = self._interner._clients
        bal, seq, logs = self._bal, self._seq, self._xlog_map
        for index in self._indices():
            client = clients[index]
            log = logs.get(index)
            if log is None:
                log = ExclusiveLog(client)
            yield client, bal[index], seq[index], log

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_client(self, client: ClientId, balance: int = 0) -> None:
        """Register a new client (reconfiguration path, §A)."""
        if self.knows(client):
            raise ValueError(f"client {client!r} already registered")
        self._bal[self._member(client)] = balance

    def credit(self, client: ClientId, amount: int) -> None:
        self._bal[self._member(client)] += amount

    def index(self, client: ClientId) -> int:
        """``client``'s interned index, within the slabs; interning is not
        membership (its slots read 0 until it joins)."""
        index = self._interner._index.get(client)
        if index is None or index >= len(self._seq):
            index = self._interner.intern(client)
            if index >= len(self._seq):
                zeros = bytes(8 * (index + 1 - len(self._seq)))
                self._bal.frombytes(zeros)
                self._seq.frombytes(zeros)
        return index

    def seqnums(self, clients: Collection[ClientId]) -> List[int]:
        """:meth:`seqnum` of each client, in one pass; interns nothing."""
        indices = list(map(self._interner._index.get, clients))
        try:  # an unknown client's None, or an index past the slabs
            return list(map(self._seq.__getitem__, indices))
        except (TypeError, IndexError):
            return list(map(self.seqnum, clients))

    def locate(self, clients: Collection[ClientId]) -> Tuple[List[int], List[int]]:
        """Each client's :meth:`index` and sn, in one pass."""
        indices = list(map(self._interner._index.get, clients))
        try:  # an unknown client's None, or an index past the slabs
            return indices, list(map(self._seq.__getitem__, indices))
        except (TypeError, IndexError):
            indices = list(map(self.index, clients))
            return indices, list(map(self._seq.__getitem__, indices))

    def try_settle_spend(
        self, index: int, core: tuple, deps: tuple = (), deposit: bool = False
    ) -> bool:
        """Listing 9's spend: withdraw, bump sn, append ``core`` to the
        xlog of the spender at ``index``; with ``deposit`` also credit the
        beneficiary (Listing 4: Astro I, the consensus baseline).  False,
        state untouched, when the balance does not cover the amount.

        Every variant settles each payment through one call of this
        method, and the repository's benchmark relies on it: its tracer
        counts the truthy calls and requires them to equal Σ
        ``settled_count`` (``core/replica.py`` lists what else it binds).
        """
        spender, _, beneficiary, amount = core
        bal = self._bal
        if bal[index] < amount:
            return False
        if index >= self._genesis_len and index not in self._members:
            index = self._member(spender)
        bal[index] -= amount
        if deposit:
            bal[self._member(beneficiary)] += amount
        self._seq[index] += 1
        self._log(index, spender).append(core, deps)
        return True

    # ------------------------------------------------------------------
    # Capture / refill (the layout half of ``core.persistence`` snapshots)
    # ------------------------------------------------------------------
    def capture(self) -> Dict[str, Any]:
        """Picklable copy of every store (incl. xlogs).

        The genesis prefix of the slabs ships as raw int64 bytes (O(16
        bytes/account), no per-client PyObjects in the pickle), the rare
        post-genesis members as one ``(client, balance, seqnum)`` list in
        join order, and the non-empty xlogs as copies of their columns,
        per owner.
        """
        genesis_len = self._genesis_len
        clients = self._interner._clients
        bal, seq = self._bal, self._seq
        logs = [log for log in self._xlog_map.values() if log.beneficiaries]
        return {
            "genesis_len": genesis_len,
            "balances": bal[:genesis_len].tobytes(),
            "seqnums": seq[:genesis_len].tobytes(),
            "extras": [(clients[i], bal[i], seq[i]) for i in self._members],
            "xlog_beneficiaries": {log.owner: list(log.beneficiaries) for log in logs},
            "xlog_amounts": {log.owner: log.amounts[:] for log in logs},
            "xlog_deps": {log.owner: dict(log.deps) for log in logs if log.deps},
        }

    def refill(self, data: Mapping[str, Any]) -> None:
        """Replace every store's content with a :meth:`capture`."""
        self._bal = array("q", data["balances"])
        self._seq = array("q", data["seqnums"])
        self._members = {}
        self._xlog_map = {}
        self._snap_order = None
        for client, balance, seqnum in data["extras"]:
            index = self._member(client)
            self._bal[index] = balance
            self._seq[index] = seqnum
        deps = data["xlog_deps"]
        for owner, beneficiaries in data["xlog_beneficiaries"].items():
            log = self._log(self._member(owner), owner)
            log.beneficiaries[:] = beneficiaries
            log.amounts[:] = data["xlog_amounts"][owner]
            log.deps.update(deps.get(owner, ()))

    # ------------------------------------------------------------------
    # Introspection (tests, invariants)
    # ------------------------------------------------------------------
    def total_balance(self) -> int:
        # Non-member slots are always 0, so the raw slab sum equals the
        # member sum — one C-speed pass regardless of account count.
        return sum(self._bal)

    def snapshot(self) -> Tuple[Tuple[ClientId, int, int], ...]:
        """Deterministic ``(client, balance, sn)`` of every member, sorted
        by ``repr(client)``, for state comparison.

        The sorted member order is cached and invalidated only when a
        client joins — fingerprinting 10⁶ idle accounts does not re-sort
        per sample.
        """
        clients = self._interner._clients
        order = self._snap_order
        if order is None:
            order = sorted(self._indices(), key=lambda i: repr(clients[i]))
            self._snap_order = order
        bal, seq = self._bal, self._seq
        return tuple((clients[i], bal[i], seq[i]) for i in order)

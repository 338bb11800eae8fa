"""Replicated account state: balances, sequence numbers, xlogs.

This is the local state every replica maintains (Listing 2):
``sn[..]`` (last settled sequence number per client), ``bal[..]``
(balances), and ``xlogs[..]``.  The same structure backs Astro I,
Astro II, and the consensus baseline — the systems differ in *how* they
agree on what to apply, not in the applied state.

Storage layout (the millions-of-users refactor): client ids are interned
to dense int indices (:class:`~repro.core.interning.ClientInterner`,
typically shared by all replicas of a system), and balances and sequence
numbers live in flat ``array('q')`` slabs — 16 bytes per client per
replica instead of one PyObject constellation per client.  Xlogs are
materialized lazily: most of 10⁶ accounts never transact in a run, so an
unmaterialized member reads as an empty log.  The ``balances`` /
``seqnums`` / ``xlogs`` attributes remain dict-like views with the exact
key set and insertion-order iteration of the former plain dicts, so
every consumer — invariant monitors, auditors, fingerprints, tests —
observes byte-identical behavior.

Invariants the views rely on: (i) a slab slot of a *non-member* index is
always 0, so ``get(client, 0)`` and arithmetic reads skip membership
checks entirely; (ii) :class:`AccountState` mutates its slabs and member
dicts **in place and never rebinds them** — ``balances``/``seqnums`` hold
the ``array('q')``, the member dict and the interner's index dict
themselves (one attribute hop fewer on ``seqnums.get``, which the
replicas' delivery and drain loops call per payment), so a snapshot
restore goes through :meth:`AccountState.refill` (empty and refill), and
no module outside this one assigns a store attribute.

Values are int64: balances and sequence numbers beyond ±2⁶³ raise
``OverflowError`` (every existing workload stays ≤ ~10¹⁵).
"""

from __future__ import annotations

from array import array
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from .interning import ClientInterner
from .payment import ClientId, Payment
from .xlog import ExclusiveLog

__all__ = ["AccountState"]


def _zero_extend(slab: array, index: int) -> None:
    """Grow ``slab`` in place so ``index`` is addressable (zero-filled)."""
    slab.frombytes(bytes(8 * (index + 1 - len(slab))))


class _SlabView:
    """Dict-like view over one int64 slab — ``balances`` or ``seqnums``.

    Holds the slab, the post-genesis member dict and the interner's index
    dict *directly* (``seqnums.get`` runs once per delivered payment), so
    it stays valid only because :class:`AccountState` never rebinds them.
    Key set and iteration order match the former plain dicts: genesis
    clients first, then post-genesis members in first-touch order.
    """

    __slots__ = ("_state", "_slab", "_extra", "_index", "_genesis_len")

    def __init__(
        self, state: "AccountState", slab: array, extra: Dict[int, None]
    ) -> None:
        self._state = state
        self._slab = slab
        self._extra = extra
        self._index = state._interner._index
        self._genesis_len = state._genesis_len

    def _indices(self) -> Iterator[int]:
        yield from range(self._genesis_len)
        yield from self._extra

    def __len__(self) -> int:
        return self._genesis_len + len(self._extra)

    def __contains__(self, client: ClientId) -> bool:
        index = self._index.get(client)
        if index is None:
            return False
        return index < self._genesis_len or index in self._extra

    def __iter__(self) -> Iterator[ClientId]:
        clients = self._state._interner._clients
        for index in self._indices():
            yield clients[index]

    def keys(self) -> List[ClientId]:
        return list(self)

    def values(self) -> List[int]:
        slab = self._slab
        length = len(slab)
        return [
            slab[index] if index < length else 0
            for index in self._indices()
        ]

    def items(self) -> List[Tuple[ClientId, int]]:
        clients = self._state._interner._clients
        slab = self._slab
        length = len(slab)
        return [
            (clients[index], slab[index] if index < length else 0)
            for index in self._indices()
        ]

    def __getitem__(self, client: ClientId) -> int:
        index = self._index.get(client)
        if index is None or not (
            index < self._genesis_len or index in self._extra
        ):
            raise KeyError(client)
        slab = self._slab
        return slab[index] if index < len(slab) else 0

    def get(self, client: ClientId, default: Optional[int] = None):
        index = self._index.get(client)
        if index is None:
            return default
        slab = self._slab
        value = slab[index] if index < len(slab) else 0
        if value == 0 and not (
            index < self._genesis_len or index in self._extra
        ):
            return default
        return value

    def __setitem__(self, client: ClientId, value: int) -> None:
        state = self._state
        index = state._interner.intern(client)
        slab = self._slab
        if index >= len(slab):
            _zero_extend(slab, index)
        if index >= self._genesis_len and index not in self._extra:
            self._extra[index] = None
            # Only a new ``seqnums`` member changes the snapshot order;
            # dropping the cache for a new balance member too is harmless.
            state._snap_order = None
        slab[index] = value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _SlabView):
            other = dict(other.items())
        if isinstance(other, Mapping):
            return dict(self.items()) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_SlabView({dict(self.items())!r})"


class _XlogsView:
    """Dict-like view over lazily materialized xlogs.

    Key set and order match the former eager dict: genesis clients
    first, then post-genesis additions in first-registration order.
    ``[client]`` materializes a persistent log (mutations stick);
    iteration yields transient empty logs for members that never
    transacted, so sampling 10⁶ idle accounts allocates nothing lasting.
    """

    __slots__ = ("_state",)

    def __init__(self, state: "AccountState") -> None:
        self._state = state

    def _indices(self) -> Iterator[int]:
        st = self._state
        yield from range(st._genesis_len)
        yield from st._extra_xlog

    def __len__(self) -> int:
        st = self._state
        return st._genesis_len + len(st._extra_xlog)

    def __contains__(self, client: ClientId) -> bool:
        st = self._state
        index = st._interner._index.get(client)
        if index is None:
            return False
        return index < st._genesis_len or index in st._extra_xlog

    def __iter__(self) -> Iterator[ClientId]:
        clients = self._state._interner._clients
        for index in self._indices():
            yield clients[index]

    def keys(self) -> List[ClientId]:
        return list(self)

    def values(self) -> List[ExclusiveLog]:
        return [log for _, log in self.items()]

    def items(self) -> List[Tuple[ClientId, ExclusiveLog]]:
        st = self._state
        clients = st._interner._clients
        materialized = st._xlog_map
        out: List[Tuple[ClientId, ExclusiveLog]] = []
        for index in self._indices():
            client = clients[index]
            log = materialized.get(index)
            if log is None:
                log = ExclusiveLog(client)
            out.append((client, log))
        return out

    def __getitem__(self, client: ClientId) -> ExclusiveLog:
        st = self._state
        index = st._interner._index.get(client)
        if index is None or not (
            index < st._genesis_len or index in st._extra_xlog
        ):
            raise KeyError(client)
        return st._materialize(index, client)

    def get(
        self, client: ClientId, default: Optional[ExclusiveLog] = None
    ) -> Optional[ExclusiveLog]:
        st = self._state
        index = st._interner._index.get(client)
        if index is None or not (
            index < st._genesis_len or index in st._extra_xlog
        ):
            return default
        return st._materialize(index, client)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_XlogsView(members={len(self)})"


class AccountState:
    """Balances, sequence numbers, and xlogs for a set of clients."""

    __slots__ = (
        "_interner",
        "_genesis_len",
        "_bal",
        "_seq",
        "_extra_bal",
        "_extra_seq",
        "_extra_xlog",
        "_xlog_map",
        "_snap_order",
        "balances",
        "seqnums",
        "xlogs",
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
        #: Indices ``0 .. _genesis_len-1`` are implicit members of all
        #: three maps, in genesis order — the zero-overhead common case
        #: where the (shared) interner starts from this very genesis.
        genesis_len = 0
        extra_bal: Dict[int, None] = {}
        extra_seq: Dict[int, None] = {}
        extra_xlog: Dict[int, None] = {}
        prefix = True
        top = -1
        for position, client in enumerate(genesis):
            index = interner.intern(client)
            if prefix and index == position:
                genesis_len += 1
            else:
                # Interner pre-populated with other clients: the tail of
                # the genesis set is tracked explicitly (rare path; the
                # systems always seed the shared interner from genesis).
                prefix = False
                extra_bal[index] = None
                extra_seq[index] = None
                extra_xlog[index] = None
            if index > top:
                top = index
        self._genesis_len = genesis_len
        bal = array("q", bytes(8 * (top + 1)))
        for client, amount in genesis.items():
            if amount:
                bal[interner._index[client]] = amount
        self._bal = bal
        self._seq = array("q", bytes(8 * (top + 1)))
        self._extra_bal = extra_bal
        self._extra_seq = extra_seq
        self._extra_xlog = extra_xlog
        self._xlog_map: Dict[int, ExclusiveLog] = {}
        #: Cached repr-sorted member indices for :meth:`snapshot`;
        #: invalidated whenever the seqnum member set changes.
        self._snap_order: Optional[List[int]] = None
        self.balances = _SlabView(self, self._bal, extra_bal)
        self.seqnums = _SlabView(self, self._seq, extra_seq)
        self.xlogs = _XlogsView(self)

    # ------------------------------------------------------------------
    # Internal plumbing
    # ------------------------------------------------------------------
    def _materialize(self, index: int, client: ClientId) -> ExclusiveLog:
        log = self._xlog_map.get(index)
        if log is None:
            log = ExclusiveLog(client)
            self._xlog_map[index] = log
            if index >= self._genesis_len and index not in self._extra_xlog:
                self._extra_xlog[index] = None
        return log

    def _ensure_spender(self, index: int) -> None:
        """Make ``index`` a member of balances+seqnums (settle paths)."""
        if index >= self._genesis_len:
            if index not in self._extra_bal:
                self._extra_bal[index] = None
            if index not in self._extra_seq:
                self._extra_seq[index] = None
                self._snap_order = None
        if index >= len(self._bal):
            _zero_extend(self._bal, index)
        if index >= len(self._seq):
            _zero_extend(self._seq, index)

    # ------------------------------------------------------------------
    # Accessors
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

    def xlog(self, client: ClientId) -> ExclusiveLog:
        return self._materialize(self._interner.intern(client), client)

    def knows(self, client: ClientId) -> bool:
        index = self._interner._index.get(client)
        if index is None:
            return False
        return index < self._genesis_len or index in self._extra_seq

    def add_client(self, client: ClientId, balance: int = 0) -> None:
        """Register a new client (reconfiguration path, §A)."""
        if self.knows(client):
            raise ValueError(f"client {client!r} already registered")
        index = self._interner.intern(client)
        self._ensure_spender(index)
        self._bal[index] = balance
        self._seq[index] = 0
        if index >= self._genesis_len and index not in self._extra_xlog:
            self._extra_xlog[index] = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def credit(self, client: ClientId, amount: int) -> None:
        index = self._interner.intern(client)
        slab = self._bal
        if index >= len(slab):
            _zero_extend(slab, index)
        if index >= self._genesis_len and index not in self._extra_bal:
            self._extra_bal[index] = None
        slab[index] += amount

    def settle_full(self, payment: Payment) -> None:
        """Listing 4: withdraw, deposit, bump sn, append to xlog.

        This is Astro I's (and the consensus baseline's) settle, where the
        beneficiary is credited directly.  Astro II uses
        :meth:`try_settle_spend` plus dependency materialization.  Runs
        once per payment per replica — the hottest code in Astro I.
        """
        interner = self._interner
        spender = payment.spender
        sp = interner._index.get(spender)
        if sp is None:
            sp = interner.intern(spender)
        self._ensure_spender(sp)
        amount = payment.amount
        bal = self._bal
        bal[sp] -= amount
        ben = interner._index.get(payment.beneficiary)
        if ben is None:
            ben = interner.intern(payment.beneficiary)
        if ben >= len(bal):
            _zero_extend(bal, ben)
        if ben >= self._genesis_len and ben not in self._extra_bal:
            self._extra_bal[ben] = None
        bal[ben] += amount
        self._seq[sp] += 1
        log = self._xlog_map.get(sp)
        if log is None:
            log = self._materialize(sp, spender)
        log.append(payment)

    def try_settle_spend(self, payment: Payment) -> bool:
        """Listing 9's spend half, funds-checked: withdraw, bump sn, append.

        The beneficiary side is handled by CREDIT messages / dependency
        certificates, never by a direct deposit.  Returns ``False`` (state
        untouched) when the spender's balance does not cover the amount —
        Listing 9 l.49, Astro II's drop-without-advancing-sn path.  One
        interner lookup and int64 slab ops per call: Astro II's hottest
        code.
        """
        interner = self._interner
        spender = payment.spender
        sp = interner._index.get(spender)
        if sp is None:
            sp = interner.intern(spender)
        bal = self._bal
        balance = bal[sp] if sp < len(bal) else 0
        amount = payment.amount
        if balance < amount:
            return False
        self._ensure_spender(sp)
        bal = self._bal
        bal[sp] = balance - amount
        self._seq[sp] += 1
        log = self._xlog_map.get(sp)
        if log is None:
            log = self._materialize(sp, spender)
        log.append(payment)
        return True

    # ------------------------------------------------------------------
    # Capture / refill (the layout half of ``core.persistence`` snapshots)
    # ------------------------------------------------------------------
    def capture(self) -> Dict[str, Any]:
        """Picklable copy of every store (incl. xlogs).

        The genesis prefix of the balance/seqnum slabs ships as raw int64
        bytes (O(16 bytes/account), no per-client PyObjects in the pickle),
        with the rare post-genesis members spelled out per client and the
        non-empty xlogs as copies of their columns, per owner.
        """
        genesis_len = self._genesis_len
        clients = self._interner._clients
        logs = [log for log in self._xlog_map.values() if log.beneficiaries]

        def _extras(slab: array, members: Dict[int, None]) -> List[Any]:
            length = len(slab)
            return [
                (clients[index], slab[index] if index < length else 0)
                for index in members
            ]

        return {
            "genesis_len": genesis_len,
            "balances": self._bal[:genesis_len].tobytes(),
            "seqnums": self._seq[:genesis_len].tobytes(),
            "extra_balances": _extras(self._bal, self._extra_bal),
            "extra_seqnums": _extras(self._seq, self._extra_seq),
            "xlog_extras": [clients[index] for index in self._extra_xlog],
            "xlog_beneficiaries": {log.owner: list(log.beneficiaries) for log in logs},
            "xlog_amounts": {log.owner: log.amounts[:] for log in logs},
            "xlog_deps": {log.owner: dict(log.deps) for log in logs if log.deps},
        }

    def refill(self, data: Mapping[str, Any]) -> None:
        """Replace every store's content with a :meth:`capture` — in place.

        Slabs and member dicts are emptied and refilled, never rebound:
        the views (and any caller holding ``state.balances`` /
        ``state.seqnums``) keep reading the restored values.
        """
        for slab, key in ((self._bal, "balances"), (self._seq, "seqnums")):
            del slab[:]
            slab.frombytes(data[key])
        self._extra_bal.clear()
        self._extra_seq.clear()
        self._extra_xlog.clear()
        self._xlog_map.clear()
        self._snap_order = None
        for client, value in data["extra_balances"]:
            self.balances[client] = value
        for client, value in data["extra_seqnums"]:
            self.seqnums[client] = value
        for owner in data["xlog_extras"]:
            self.xlog(owner)
        deps = data["xlog_deps"]
        for owner, beneficiaries in data["xlog_beneficiaries"].items():
            log = self.xlog(owner)
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
        """Deterministic (client, balance, sn) tuple for state comparison.

        The repr-sorted member order is cached and invalidated only when
        the member set changes (``add_client`` / first settle of an
        unknown spender) — fingerprinting 10⁶ idle accounts no longer
        re-sorts per sample.
        """
        clients = self._interner._clients
        order = self._snap_order
        if order is None:
            members = list(range(self._genesis_len))
            members.extend(self._extra_seq)
            members.sort(key=lambda index: repr(clients[index]))
            order = self._snap_order = members
        bal = self._bal
        seq = self._seq
        nb = len(bal)
        ns = len(seq)
        return tuple(
            (
                clients[index],
                bal[index] if index < nb else 0,
                seq[index] if index < ns else 0,
            )
            for index in order
        )

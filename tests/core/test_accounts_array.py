"""Array-backed account store: interning, readers, snapshot cache.

The plain-dict store (`DictAccountState`, defined below; it exists only
here) is the behavioral reference: both stores expose the same method
surface, and these tests assert they stay indistinguishable — including
the byte-identity of ``repr(snapshot())``, which the golden history
fingerprints hash.
"""

import random
from array import array
from types import SimpleNamespace
from typing import Dict, Iterator, List, Mapping, Tuple

import pytest

from repro.adversary.monitor import replica_state_view
from repro.core.accounts import AccountState
from repro.core.interning import ClientInterner
from repro.core.payment import ClientId, Payment
from repro.core.persistence import (
    restore_account_state,
    snapshot_account_state,
    state_fingerprint,
)
from repro.core.xlog import ExclusiveLog


def settle_full(state, payment):
    """Listing 4 for one ``Payment``: the settle step, depositing."""
    index = state.index(payment.spender)
    assert state.try_settle_spend(index, payment.core, payment.deps, True)


class DictAccountState:
    """Reference oracle: a plain-dict account store.

    One member set — a dict, client → ``[balance, seqnum, xlog]`` in the
    order clients joined, genesis first — with an eager
    :class:`ExclusiveLog` per member.  No interning, slabs or lazy logs,
    which is what makes it a trustworthy reference.  As in
    :class:`AccountState`, a write makes a client a member and a read
    does not.
    """

    __slots__ = ("_accounts",)

    def __init__(self, genesis: Mapping[ClientId, int]) -> None:
        for client, amount in genesis.items():
            if amount < 0:
                raise ValueError(
                    f"negative genesis balance for {client!r}: {amount}"
                )
        self._accounts: Dict[ClientId, list] = {
            client: [amount, 0, ExclusiveLog(client)]
            for client, amount in genesis.items()
        }

    def _member(self, client: ClientId) -> list:
        account = self._accounts.get(client)
        if account is None:
            account = self._accounts[client] = [0, 0, ExclusiveLog(client)]
        return account

    def balance(self, client: ClientId) -> int:
        return self._accounts.get(client, (0,))[0]

    def seqnum(self, client: ClientId) -> int:
        return self._accounts.get(client, (0, 0))[1]

    def knows(self, client: ClientId) -> bool:
        return client in self._accounts

    def xlog(self, client: ClientId) -> ExclusiveLog:
        account = self._accounts.get(client)
        return ExclusiveLog(client) if account is None else account[2]

    def accounts(self) -> Iterator[Tuple[ClientId, int, int, ExclusiveLog]]:
        for client, (balance, seqnum, log) in self._accounts.items():
            yield client, balance, seqnum, log

    def add_client(self, client: ClientId, balance: int = 0) -> None:
        if client in self._accounts:
            raise ValueError(f"client {client!r} already registered")
        self._member(client)[0] = balance

    def credit(self, client: ClientId, amount: int) -> None:
        self._member(client)[0] += amount

    def index(self, client: ClientId) -> ClientId:
        return client

    def try_settle_spend(self, index, core, deps=(), deposit=False) -> bool:
        spender, _, beneficiary, amount = core
        if self.balance(spender) < amount:
            return False
        account = self._member(spender)
        account[0] -= amount
        if deposit:
            self.credit(beneficiary, amount)
        account[1] += 1
        account[2].append(core, deps)
        return True

    def total_balance(self) -> int:
        return sum(account[0] for account in self._accounts.values())

    def snapshot(self) -> Tuple[Tuple[ClientId, int, int], ...]:
        return tuple(
            (client, balance, seqnum)
            for client, (balance, seqnum, _) in sorted(
                self._accounts.items(), key=lambda item: repr(item[0])
            )
        )


def rows(state) -> List[tuple]:
    """Every member's account, its xlog as the list of its payments."""
    return [
        (client, balance, seqnum, list(log))
        for client, balance, seqnum, log in state.accounts()
    ]


def fresh_snapshot(state):
    """The uncached snapshot formula: every member, re-sorted per call."""
    return tuple(
        sorted(
            ((client, balance, seqnum)
             for client, balance, seqnum, _ in state.accounts()),
            key=lambda row: repr(row[0]),
        )
    )


class TestClientInterner:
    def test_assigns_dense_insertion_ordered_indices(self):
        interner = ClientInterner(["b", "a", "c"])
        assert [interner.index_of(c) for c in ("b", "a", "c")] == [0, 1, 2]
        assert interner.intern("d") == 3
        assert interner.intern("a") == 1
        assert interner.client_at(3) == "d"
        assert "d" in interner and "e" not in interner
        assert len(interner) == 4

    def test_index_of_unknown_is_none(self):
        assert ClientInterner().index_of("ghost") is None

    def test_tuple_client_ids(self):
        acct = ("acct", 7, "checking")
        interner = ClientInterner([acct])
        assert interner.index_of(acct) == 0
        assert interner.client_at(0) == acct


class TestArrayDictParity:
    def test_random_operation_sequence_matches_dict_store(self):
        genesis = {f"client-{i}": 100 for i in range(8)}
        arr = AccountState(genesis)
        ref = DictAccountState(genesis)
        rng = random.Random(42)
        clients = list(genesis) + ["late-0", "late-1"]
        arr.add_client("late-0", 50)
        ref.add_client("late-0", 50)
        arr.credit("late-1", 30)
        ref.credit("late-1", 30)
        seqs = {c: 0 for c in clients}
        for step in range(300):
            spender, beneficiary = rng.sample(clients, 2)
            if step % 3 == 0:  # Astro II's spend half; may be refused
                amount = rng.randint(1, 120)
                payment = Payment(spender, seqs[spender] + 1, beneficiary, amount)
                settled = arr.try_settle_spend(arr.index(spender), payment.core)
                assert settled == ref.try_settle_spend(spender, payment.core)
                seqs[spender] += settled
                continue
            if arr.balance(spender) < 1:
                continue
            seqs[spender] += 1
            payment = Payment(spender, seqs[spender], beneficiary, 1)
            settle_full(arr, payment)
            settle_full(ref, payment)
        for ghost in ("ghost-0", "ghost-1"):
            assert len(arr.xlog(ghost)) == len(ref.xlog(ghost)) == 0
        assert rows(arr) == rows(ref)
        assert arr.snapshot() == ref.snapshot()
        assert repr(arr.snapshot()) == repr(ref.snapshot())
        assert arr.total_balance() == ref.total_balance()
        for client in clients + ["ghost-0"]:
            assert arr.knows(client) == ref.knows(client)
            assert list(arr.xlog(client)) == list(ref.xlog(client))

    def test_iteration_order_matches_dict_store(self):
        genesis = {"b": 1, "a": 2}
        arr = AccountState(genesis)
        ref = DictAccountState(genesis)
        for state in (arr, ref):
            state.credit("z", 5)
            state.add_client("m")
        assert rows(arr) == rows(ref)
        assert [row[0] for row in rows(arr)] == ["b", "a", "z", "m"]

    def test_try_settle_spend_rejects_without_state_change(self):
        genesis = {"a": 10, "b": 0}
        arr = AccountState(genesis)
        before = arr.snapshot()
        assert not arr.try_settle_spend(arr.index("a"), ("a", 1, "b", 11))
        assert arr.snapshot() == before
        assert arr.seqnum("a") == 0
        assert arr.try_settle_spend(arr.index("a"), ("a", 1, "b", 10))
        assert arr.balance("a") == 0
        assert arr.seqnum("a") == 1

    def test_shared_interner_across_replicas(self):
        genesis = {f"client-{i}": 10 for i in range(4)}
        interner = ClientInterner(genesis)
        states = [AccountState(genesis, interner=interner) for _ in range(3)]
        states[0].credit("new", 5)
        # The id is interned once, globally; other states stay unaware.
        assert interner.index_of("new") is not None
        assert not states[1].knows("new")
        assert states[1].balance("new") == 0


class TestSnapshotCache:
    def test_snapshot_matches_fresh_sort_formula(self):
        genesis = {f"client-{i}": 100 for i in range(6)}
        state = AccountState(genesis)
        settle_full(state, Payment("client-3", 1, "client-0", 7))
        assert state.snapshot() == fresh_snapshot(state)
        assert repr(state.snapshot()) == repr(fresh_snapshot(state))

    def test_cache_invalidated_by_membership_changes(self):
        state = AccountState({"m": 10, "a": 10})
        first = state.snapshot()
        assert first == fresh_snapshot(state)
        # add_client introduces a member that sorts between the others.
        state.add_client("g", 3)
        assert state.snapshot() == fresh_snapshot(state)
        # Settling an unknown spender adds seqnum membership too.
        settle_full(state, Payment("zz", 1, "a", 0))
        assert state.snapshot() == fresh_snapshot(state)
        # So does a credit: a credited account is a member too.
        state.credit("bb", 4)
        assert state.snapshot() == fresh_snapshot(state)
        assert state.snapshot() != first

    def test_value_changes_visible_without_invalidation(self):
        genesis = {"a": 10, "b": 20}
        state = AccountState(genesis)
        state.snapshot()
        state.credit("a", 5)
        state.credit("b", -3)
        assert state.snapshot() == (("a", 15, 0), ("b", 17, 0))


class TestViews:
    """What the readers show: members only, and a read joins nobody."""

    def test_zero_balance_member_is_distinct_from_absent(self):
        state = AccountState({"a": 0})
        assert state.balance("a") == state.balance("ghost") == 0
        assert state.knows("a") and not state.knows("ghost")
        assert [row[0] for row in state.accounts()] == ["a"]

    def test_xlog_materialization_is_persistent(self):
        state = AccountState({"a": 10, "b": 0})
        log = state.xlog("a")
        payment = Payment("a", 1, "b", 1)
        settle_full(state, payment)
        # The handle obtained *before* the settle sees the append.
        assert list(log) == [payment]

    def test_xlog_items_are_transient_for_idle_members(self):
        state = AccountState({f"c{i}": 1 for i in range(50)})
        assert not any(log for _, _, _, log in state.accounts())
        # Reading every member must not have materialized anything.
        assert len(state._xlog_map) == 0

    def test_view_equality_against_plain_dict(self):
        """A monitor view is plain dicts over the members."""
        state = AccountState({"a": 5, "b": 7})
        view = replica_state_view(SimpleNamespace(state=state))
        assert view == {
            "balances": {"a": 5, "b": 7},
            "seqnums": {"a": 0, "b": 0},
            "xlogs": {"a": ((), array("q"), {}), "b": ((), array("q"), {})},
        }

    def test_negative_genesis_rejected(self):
        with pytest.raises(ValueError):
            AccountState({"a": -1})

    def test_restore_replaces_the_member_set(self):
        genesis = {"a": 10, "b": 0}
        source = AccountState(genesis)
        settle_full(source, Payment("a", 1, "b", 4))
        settle_full(source, Payment("late", 1, "a", 0))  # post-genesis member
        source.credit("walk-in", 9)

        target = AccountState(genesis)
        settle_full(target, Payment("b", 1, "ghost", 0))  # state to be dropped
        restore_account_state(target, snapshot_account_state(source))
        assert rows(target) == rows(source)
        assert [row[:3] for row in rows(target)] == [
            ("a", 6, 1), ("b", 4, 0), ("late", 0, 1), ("walk-in", 9, 0),
        ]
        assert not target.knows("ghost") and target.seqnum("b") == 0
        assert target.snapshot() == source.snapshot()


class TestOneMemberSet:
    """Balances, seqnums and xlogs range over one set of clients."""

    def test_fingerprint_covers_a_credited_account(self):
        """A credited account that never spent is part of the state the
        fingerprint witnesses."""
        five, six = AccountState({"a": 10}), AccountState({"a": 10})
        five.credit("ghost", 5)
        six.credit("ghost", 6)
        assert state_fingerprint(five) != state_fingerprint(six)

    def test_a_read_never_creates_an_account(self):
        genesis = {"a": 10}
        interner = ClientInterner(genesis)
        reader = AccountState(genesis, interner=interner)
        AccountState(genesis, interner=interner).credit("b", 1)
        replica = SimpleNamespace(state=reader)

        def observed():
            view = replica_state_view(replica)
            keys = {name: list(view[name]) for name in view}
            return len(interner), reader.knows("ghost"), keys

        before = observed()
        assert len(reader.xlog("ghost")) == 0
        assert observed() == before == (2, False, {
            "balances": ["a"], "seqnums": ["a"], "xlogs": ["a"],
        })

"""Array-backed account store: interning, views, snapshot cache.

The dict-of-objects store (`DictAccountState`, defined below; it exists
only here) is the behavioral reference: both stores expose the same
mapping views and method surface, and these tests assert they stay
indistinguishable — including the byte-identity of ``repr(snapshot())``,
which the golden history fingerprints hash.
"""

import random
from typing import Dict, Iterable, Mapping, Tuple

import pytest

from repro.core.accounts import AccountState
from repro.core.interning import ClientInterner
from repro.core.payment import ClientId, Payment
from repro.core.xlog import ExclusiveLog


class DictAccountState:
    """Reference oracle: the dict-of-objects store `AccountState` replaced.

    One dict entry per client in each of three maps plus an eager
    :class:`ExclusiveLog` — plain-dict logic with no interning, slabs or
    lazy views, which is what makes it a trustworthy reference.
    """

    __slots__ = ("balances", "seqnums", "xlogs")

    def __init__(self, genesis: Mapping[ClientId, int]) -> None:
        for client, amount in genesis.items():
            if amount < 0:
                raise ValueError(
                    f"negative genesis balance for {client!r}: {amount}"
                )
        self.balances: Dict[ClientId, int] = dict(genesis)
        self.seqnums: Dict[ClientId, int] = {client: 0 for client in genesis}
        self.xlogs: Dict[ClientId, ExclusiveLog] = {
            client: ExclusiveLog(client) for client in genesis
        }

    def balance(self, client: ClientId) -> int:
        return self.balances.get(client, 0)

    def seqnum(self, client: ClientId) -> int:
        return self.seqnums.get(client, 0)

    def xlog(self, client: ClientId) -> ExclusiveLog:
        log = self.xlogs.get(client)
        if log is None:
            log = ExclusiveLog(client)
            self.xlogs[client] = log
        return log

    def knows(self, client: ClientId) -> bool:
        return client in self.seqnums

    def add_client(self, client: ClientId, balance: int = 0) -> None:
        if client in self.seqnums:
            raise ValueError(f"client {client!r} already registered")
        self.balances[client] = balance
        self.seqnums[client] = 0
        self.xlogs[client] = ExclusiveLog(client)

    def credit(self, client: ClientId, amount: int) -> None:
        self.balances[client] = self.balances.get(client, 0) + amount

    def settle_full(self, payment: Payment) -> None:
        spender = payment.spender
        self.balances[spender] = (
            self.balances.get(spender, 0) - payment.amount
        )
        self.credit(payment.beneficiary, payment.amount)
        self.seqnums[spender] = self.seqnums.get(spender, 0) + 1
        self.xlog(spender).append(payment)

    def settle_spend_only(self, payment: Payment) -> None:
        spender = payment.spender
        self.balances[spender] = (
            self.balances.get(spender, 0) - payment.amount
        )
        self.seqnums[spender] = self.seqnums.get(spender, 0) + 1
        self.xlog(spender).append(payment)

    def try_settle_spend(self, payment: Payment) -> bool:
        spender = payment.spender
        if self.balances.get(spender, 0) < payment.amount:
            return False
        self.settle_spend_only(payment)
        return True

    def total_balance(self) -> int:
        return sum(self.balances.values())

    def snapshot(self) -> Tuple[Tuple[ClientId, int, int], ...]:
        return tuple(
            (
                client,
                self.balances.get(client, 0),
                self.seqnums.get(client, 0),
            )
            for client in sorted(self.seqnums, key=repr)
        )

    def clients(self) -> Iterable[ClientId]:
        return self.seqnums.keys()


def fresh_snapshot(state):
    """The pre-cache snapshot formula: re-sort members on every call."""
    return tuple(
        (client, state.balances.get(client, 0), seq)
        for client, seq in sorted(
            state.seqnums.items(), key=lambda item: repr(item[0])
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
        for _ in range(300):
            spender, beneficiary = rng.sample(clients, 2)
            if arr.balance(spender) < 1:
                continue
            seqs[spender] += 1
            payment = Payment(spender, seqs[spender], beneficiary, 1)
            arr.settle_full(payment)
            ref.settle_full(payment)
        assert dict(arr.balances) == dict(ref.balances)
        assert dict(arr.seqnums) == dict(ref.seqnums)
        assert arr.snapshot() == ref.snapshot()
        assert repr(arr.snapshot()) == repr(ref.snapshot())
        assert arr.total_balance() == ref.total_balance()
        for client in clients:
            assert list(arr.xlog(client)) == list(ref.xlog(client))

    def test_iteration_order_matches_dict_store(self):
        genesis = {"b": 1, "a": 2}
        arr = AccountState(genesis)
        ref = DictAccountState(genesis)
        for state in (arr, ref):
            state.credit("z", 5)
            state.add_client("m")
        assert list(arr.balances) == list(ref.balances)
        assert list(arr.seqnums) == list(ref.seqnums)
        assert list(arr.balances.items()) == list(ref.balances.items())

    def test_try_settle_spend_rejects_without_state_change(self):
        genesis = {"a": 10, "b": 0}
        arr = AccountState(genesis)
        before = arr.snapshot()
        assert not arr.try_settle_spend(Payment("a", 1, "b", 11))
        assert arr.snapshot() == before
        assert arr.seqnum("a") == 0
        assert arr.try_settle_spend(Payment("a", 1, "b", 10))
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
        state.settle_full(Payment("client-3", 1, "client-0", 7))
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
        state.settle_full(Payment("zz", 1, "a", 0))
        assert state.snapshot() == fresh_snapshot(state)
        # So does a direct seqnums view write (adversary forks do this).
        state.seqnums["bb"] = 4
        assert state.snapshot() == fresh_snapshot(state)
        assert state.snapshot() != first

    def test_value_changes_visible_without_invalidation(self):
        genesis = {"a": 10, "b": 20}
        state = AccountState(genesis)
        state.snapshot()
        state.credit("a", 5)
        state.balances["b"] -= 3
        assert state.snapshot() == (("a", 15, 0), ("b", 17, 0))


class TestViews:
    def test_get_distinguishes_zero_member_from_absent(self):
        state = AccountState({"a": 0})
        assert state.balances.get("a", -1) == 0
        assert state.balances.get("ghost", -1) == -1
        assert "a" in state.balances and "ghost" not in state.balances

    def test_augmented_assignment_through_views(self):
        state = AccountState({"a": 10})
        state.balances["a"] -= 4
        state.seqnums["a"] += 2
        assert state.balance("a") == 6
        assert state.seqnum("a") == 2

    def test_xlog_materialization_is_persistent(self):
        state = AccountState({"a": 10, "b": 0})
        log = state.xlogs["a"]
        payment = Payment("a", 1, "b", 1)
        state.settle_full(payment)
        # The handle obtained *before* the settle sees the append.
        assert list(log) == [payment]

    def test_xlog_items_are_transient_for_idle_members(self):
        state = AccountState({f"c{i}": 1 for i in range(50)})
        for _, log in state.xlogs.items():
            assert len(log) == 0
        # Iterating must not have materialized anything.
        assert len(state._xlog_map) == 0

    def test_view_equality_against_plain_dict(self):
        state = AccountState({"a": 5, "b": 7})
        assert state.balances == {"a": 5, "b": 7}
        assert dict(state.seqnums) == {"a": 0, "b": 0}

    def test_negative_genesis_rejected(self):
        with pytest.raises(ValueError):
            AccountState({"a": -1})

    def test_views_taken_before_restore_read_restored_values(self):
        """The never-rebind invariant: ``balances``/``seqnums`` hold the
        slab and member dict themselves, so a restore must refill them in
        place — a handle cached before it (as the replicas' delivery
        loops do) keeps reading the live values."""
        from repro.core.persistence import (
            restore_account_state,
            snapshot_account_state,
        )

        genesis = {"a": 10, "b": 0}
        source = AccountState(genesis)
        source.settle_full(Payment("a", 1, "b", 4))
        source.settle_full(Payment("late", 1, "a", 0))  # post-genesis member
        source.credit("walk-in", 9)
        capture = snapshot_account_state(source)

        target = AccountState(genesis)
        target.settle_full(Payment("b", 1, "ghost", 0))  # state to be dropped
        balances, seqnums = target.balances, target.seqnums
        assert type(balances) is type(seqnums)
        stores = ("_bal", "_seq", "_extra_bal", "_extra_seq")
        before = [getattr(target, name) for name in stores]
        restore_account_state(target, capture)
        assert balances is target.balances and seqnums is target.seqnums
        for name, store in zip(stores, before):
            assert getattr(target, name) is store, f"{name} was rebound"
        assert balances == dict(source.balances) == {
            "a": 6, "b": 4, "late": 0, "walk-in": 9,
        }
        assert seqnums == dict(source.seqnums) == {"a": 1, "b": 0, "late": 1}
        assert "ghost" not in balances and seqnums.get("b") == 0
        assert list(balances) == list(source.balances)
        assert target.snapshot() == source.snapshot()

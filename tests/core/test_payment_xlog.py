"""Unit tests for Payment, ExclusiveLog, AccountState."""

import pytest
from hypothesis import given, strategies as st

from repro.core.accounts import AccountState
from repro.core.payment import Payment
from repro.core.xlog import ExclusiveLog, XlogViolation


def settle_full(state, payment):
    """Listing 4 for one ``Payment``: the settle step, depositing."""
    index = state.index(payment.spender)
    assert state.try_settle_spend(index, payment.core, payment.deps, True)


class TestPayment:
    def test_identifier(self):
        payment = Payment("alice", 3, "bob", 10)
        assert payment.identifier == ("alice", 3)

    def test_invalid_seq_rejected(self):
        with pytest.raises(ValueError):
            Payment("alice", 0, "bob", 10)

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            Payment("alice", 1, "bob", -1)

    def test_equality_ignores_submitted_at(self):
        a = Payment("alice", 1, "bob", 10, submitted_at=1.0)
        b = Payment("alice", 1, "bob", 10, submitted_at=9.0)
        assert a == b
        assert hash(a) == hash(b)

    def test_canonical_excludes_measurement_metadata(self):
        a = Payment("alice", 1, "bob", 10, submitted_at=1.0)
        b = Payment("alice", 1, "bob", 10, submitted_at=2.0)
        assert a.canonical() == b.canonical()

    def test_core_canonical_excludes_deps(self):
        plain = Payment("alice", 1, "bob", 10)
        with_dep = Payment("alice", 1, "bob", 10, deps=("marker",))
        assert plain.core_canonical() == with_dep.core_canonical()
        assert plain.canonical() != with_dep.canonical()

    def test_wire_bytes_grows_with_deps(self):
        class FakeCert:
            wire_bytes = 112

        plain = Payment("alice", 1, "bob", 10)
        heavy = Payment("alice", 1, "bob", 10, deps=(FakeCert(), FakeCert()))
        assert plain.wire_bytes == 100
        assert heavy.wire_bytes == 100 + 224


class TestExclusiveLog:
    def test_append_in_order(self):
        log = ExclusiveLog("alice")
        log.append(Payment("alice", 1, "bob", 1).core)
        log.append(Payment("alice", 2, "carol", 2).core)
        assert log.last_seq == 2
        assert [p.seq for p in log] == [1, 2]

    def test_exclusivity_enforced(self):
        log = ExclusiveLog("alice")
        with pytest.raises(XlogViolation):
            log.append(Payment("bob", 1, "alice", 1).core)

    def test_gap_rejected(self):
        log = ExclusiveLog("alice")
        with pytest.raises(XlogViolation):
            log.append(Payment("alice", 2, "bob", 1).core)

    def test_duplicate_seq_rejected(self):
        log = ExclusiveLog("alice")
        log.append(Payment("alice", 1, "bob", 1).core)
        with pytest.raises(XlogViolation):
            log.append(Payment("alice", 1, "carol", 1).core)

    def test_prefix_relation(self):
        short = ExclusiveLog("alice")
        long = ExclusiveLog("alice")
        for log in (short, long):
            log.append(Payment("alice", 1, "bob", 1).core)
        long.append(Payment("alice", 2, "bob", 2).core)
        assert short.is_prefix_of(long)
        assert not long.is_prefix_of(short)
        assert short.is_prefix_of(short)

    def test_prefix_requires_same_owner(self):
        a = ExclusiveLog("alice")
        b = ExclusiveLog("bob")
        assert not a.is_prefix_of(b)

    def test_diverged_logs_not_prefix(self):
        a = ExclusiveLog("alice")
        b = ExclusiveLog("alice")
        a.append(Payment("alice", 1, "bob", 1).core)
        b.append(Payment("alice", 1, "carol", 1).core)
        assert not a.is_prefix_of(b)

    def test_entries_returns_immutable_snapshot(self):
        log = ExclusiveLog("alice")
        log.append(Payment("alice", 1, "bob", 1).core)
        entries = log.entries()
        assert isinstance(entries, tuple)
        assert log[0] == entries[0]

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=30))
    def test_append_only_property(self, amounts):
        log = ExclusiveLog("c")
        for index, amount in enumerate(amounts, start=1):
            log.append(Payment("c", index, "d", amount).core)
        assert len(log) == len(amounts)
        assert [p.amount for p in log] == amounts


class TestAccountState:
    def test_genesis_and_accessors(self):
        state = AccountState({"a": 100, "b": 0})
        assert state.balance("a") == 100
        assert state.seqnum("a") == 0
        assert state.knows("a")
        assert not state.knows("zzz")
        assert state.balance("zzz") == 0

    def test_negative_genesis_rejected(self):
        with pytest.raises(ValueError):
            AccountState({"a": -5})

    def test_settle_full_moves_value(self):
        state = AccountState({"a": 100, "b": 0})
        settle_full(state, Payment("a", 1, "b", 30))
        assert state.balance("a") == 70
        assert state.balance("b") == 30
        assert state.seqnum("a") == 1
        assert state.xlog("a").last_seq == 1
        assert state.total_balance() == 100

    def test_settle_spend_only_defers_deposit(self):
        state = AccountState({"a": 100, "b": 0})
        assert state.try_settle_spend(state.index("a"), ("a", 1, "b", 30)) is True
        assert state.balance("a") == 70
        assert state.balance("b") == 0  # credited via dependencies later
        assert state.total_balance() == 70

    def test_credit(self):
        state = AccountState({"a": 0})
        state.credit("a", 25)
        state.credit("new-client", 5)
        assert state.balance("a") == 25
        assert state.balance("new-client") == 5

    def test_add_client(self):
        state = AccountState({})
        state.add_client("x", balance=7)
        assert state.balance("x") == 7
        with pytest.raises(ValueError):
            state.add_client("x")

    def test_snapshot_is_deterministic(self):
        a = AccountState({"x": 1, "y": 2})
        b = AccountState({"y": 2, "x": 1})
        assert a.snapshot() == b.snapshot()

    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["a", "b", "c"]),
                      st.integers(min_value=1, max_value=50)),
            max_size=30,
        )
    )
    def test_conservation_under_settles(self, transfers):
        state = AccountState({"a": 1000, "b": 1000, "c": 1000})
        seqs = {"a": 0, "b": 0, "c": 0}
        for spender, beneficiary, amount in transfers:
            if spender == beneficiary or state.balance(spender) < amount:
                continue
            seqs[spender] += 1
            settle_full(state, Payment(spender, seqs[spender], beneficiary, amount))
        assert state.total_balance() == 3000
        assert all(balance >= 0 for _, balance, _, _ in state.accounts())

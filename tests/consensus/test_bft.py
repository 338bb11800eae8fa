"""Unit/system tests for the consensus baseline (normal case + view change)."""


from repro.consensus import BftConfig, BftSystem
from repro.sim import UniformLatency

GENESIS = {"alice": 100, "bob": 50, "carol": 0}


def build(n=4, genesis=None, **kwargs):
    return BftSystem(num_replicas=n, genesis=genesis or dict(GENESIS), **kwargs)


class TestNormalCase:
    def test_single_payment_executes_everywhere(self):
        system = build()
        system.submit("alice", "bob", 30)
        system.settle_all()
        assert system.settled_counts() == [1, 1, 1, 1]
        assert system.balances_at(0) == {"alice": 70, "bob": 80, "carol": 0}

    def test_total_order_identical_sequences(self):
        system = build(n=7)
        for index in range(20):
            system.submit("alice", "bob", 1)
            system.submit("bob", "carol", 1)
        system.settle_all()
        snapshots = {replica.state.snapshot() for replica in system.replicas}
        assert len(snapshots) == 1
        assert all(count == 40 for count in system.settled_counts())

    def test_conservation(self):
        system = build()
        for _ in range(10):
            system.submit("alice", "carol", 3)
        system.settle_all()
        assert system.total_value() == sum(GENESIS.values())

    def test_duplicate_request_executes_once(self):
        system = build()
        payment = system.make_payment("alice", "bob", 5)
        system.submit_payment(payment)
        system.submit_payment(payment)
        system.settle_all()
        assert system.settled_counts() == [1, 1, 1, 1]

    def test_underfunded_payment_waits_for_credit(self):
        system = build()
        system.submit("carol", "bob", 60)   # carol has 0
        system.submit("alice", "carol", 80)
        system.settle_all()
        balances = system.balances_at(0)
        assert balances["carol"] == 20
        assert balances["bob"] == 110

    def test_confirmation_after_f_plus_one_executions(self):
        system = build()
        seen = []
        system.add_confirm_hook(lambda payment, at: seen.append(payment.identifier))
        system.submit("alice", "bob", 5)
        system.settle_all()
        assert seen == [("alice", 1)]

    def test_client_node_confirms_after_f_plus_one_replies(self):
        system = build()
        latencies = []
        client = system.add_client_node(
            "alice", on_confirm=lambda payment, latency: latencies.append(latency)
        )
        client.pay("bob", 5)
        system.settle_all()
        assert client.confirmed_count == 1
        assert latencies[0] > 0


class TestViewChange:
    def test_leader_crash_triggers_view_change_and_recovery(self):
        system = build()
        system.faults.crash(0, at=0.0)  # replica 0 leads view 0
        system.submit("alice", "bob", 10)
        system.settle_all(max_time=30)
        alive = system.replicas[1:]
        assert all(replica.view >= 1 for replica in alive)
        assert all(replica.executed_count == 1 for replica in alive)

    def test_two_successive_leader_crashes(self):
        system = build(n=7)
        system.faults.crash(0, at=0.0)
        system.faults.crash(1, at=0.0)
        system.submit("alice", "bob", 10)
        system.settle_all(max_time=60)
        alive = system.replicas[2:]
        assert all(replica.view >= 2 for replica in alive)
        assert all(replica.executed_count == 1 for replica in alive)

    def test_no_spurious_view_change_when_healthy(self):
        system = build()
        for _ in range(10):
            system.submit("alice", "bob", 1)
        system.settle_all()
        assert all(replica.view == 0 for replica in system.replicas)
        assert all(replica.view_changes == 0 for replica in system.replicas)

    def test_in_flight_requests_survive_view_change(self):
        """Requests proposed by the crashed leader are re-proposed by the
        new one: nothing is lost, nothing executes twice."""
        system = build(latency=UniformLatency(0.002, 0.01, seed=4))
        for _ in range(5):
            system.submit("alice", "bob", 1)
        # Crash the leader almost immediately — mid-protocol.
        system.faults.crash(0, at=0.02)
        system.settle_all(max_time=30)
        alive = system.replicas[1:]
        for replica in alive:
            assert replica.executed_count == 5
        snapshots = {replica.state.snapshot() for replica in alive}
        assert len(snapshots) == 1

    def test_safety_across_view_change(self):
        """No two correct replicas execute different payments for the
        same position (checked via final state equality)."""
        system = build(n=7)
        for index in range(12):
            system.submit("alice", "carol", 1)
        system.faults.crash(0, at=0.05)
        system.settle_all(max_time=40)
        alive = system.replicas[1:]
        snapshots = {replica.state.snapshot() for replica in alive}
        assert len(snapshots) == 1
        assert alive[0].executed_count == 12

    def test_slow_leader_with_patient_timeout_no_view_change(self):
        config = BftConfig(num_replicas=4, request_timeout=60.0)
        system = build(config=config)
        system.faults.delay_egress(0, 0.1, at=0.0)
        system.submit("alice", "bob", 5)
        system.settle_all(max_time=20)
        assert all(replica.view == 0 for replica in system.replicas)
        assert system.settled_counts() == [1, 1, 1, 1]

    def test_slow_leader_with_aggressive_timeout_deposed(self):
        config = BftConfig(
            num_replicas=4, request_timeout=0.3, timeout_check_interval=0.1
        )
        system = build(config=config)
        system.faults.delay_egress(0, 0.5, at=0.0)
        system.submit("alice", "bob", 5)
        system.settle_all(max_time=30)
        assert any(replica.view >= 1 for replica in system.replicas[1:])
        assert all(r.executed_count == 1 for r in system.replicas[1:])


class TestLedger:
    def test_waiting_count(self):
        from repro.consensus.ledger import PaymentLedger
        from repro.core.payment import Payment

        ledger = PaymentLedger({"a": 10, "b": 0})
        ledger.apply(Payment("b", 1, "a", 5))  # unfunded: waits
        assert ledger.waiting_count == 1
        ledger.apply(Payment("a", 1, "b", 7))
        assert ledger.waiting_count == 0
        assert ledger.settled_count == 2
        assert ledger.state.balance("b") == 2

    def test_out_of_order_client_seq(self):
        from repro.consensus.ledger import PaymentLedger
        from repro.core.payment import Payment

        ledger = PaymentLedger({"a": 10})
        ledger.apply(Payment("a", 2, "x", 1))
        assert ledger.settled_count == 0
        ledger.apply(Payment("a", 1, "x", 1))
        assert ledger.settled_count == 2

    def test_a_copy_of_a_settled_identifier_is_dropped(self):
        """A re-ordered copy of a payment that already settled must not
        wait for good behind the spender's settled seq."""
        from repro.consensus.ledger import PaymentLedger
        from repro.core.payment import Payment

        ledger = PaymentLedger({"a": 10})
        for seq in (1, 1, 2):
            ledger.apply(Payment("a", seq, "x", 1))
        assert ledger.settled_count == 2
        assert ledger.waiting_count == 0

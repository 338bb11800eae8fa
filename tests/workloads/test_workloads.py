"""Tests for workload generators and load drivers."""

import pytest

from repro.core.system import Astro2System
from repro.workloads.drivers import ClosedLoopDriver, OpenLoopDriver
from repro.workloads.smallbank import (
    SmallbankWorkload,
    bank,
    checking,
    savings,
    shard_assignment,
    smallbank_genesis,
)
from repro.workloads.uniform import UniformWorkload, uniform_genesis
from repro.sim.metrics import LatencyRecorder, ThroughputMeter


class TestUniformWorkload:
    def test_round_robin_spenders(self):
        workload = UniformWorkload(["a", "b", "c"], seed=1)
        spenders = [workload.next()[0] for _ in range(6)]
        assert spenders == ["a", "b", "c", "a", "b", "c"]

    def test_never_self_transfer(self):
        workload = UniformWorkload(["a", "b"], seed=2)
        for _ in range(50):
            spender, beneficiary, _ = workload.next()
            assert spender != beneficiary

    def test_amounts_in_range(self):
        workload = UniformWorkload(["a", "b"], seed=3, min_amount=5, max_amount=9)
        for _ in range(50):
            assert 5 <= workload.next()[2] <= 9

    def test_needs_two_clients(self):
        with pytest.raises(ValueError):
            UniformWorkload(["solo"])

    def test_next_for_fixed_spender(self):
        workload = UniformWorkload(["a", "b", "c"], seed=4)
        for _ in range(20):
            spender, beneficiary, _ = workload.next_for("b")
            assert spender == "b"
            assert beneficiary != "b"

    def test_genesis_builder(self):
        genesis = uniform_genesis(5, balance=42)
        assert len(genesis) == 5
        assert all(value == 42 for value in genesis.values())


class TestSmallbank:
    def test_genesis_contains_two_accounts_per_owner_plus_banks(self):
        genesis = smallbank_genesis(4, num_shards=2)
        assert checking(0) in genesis
        assert savings(0) in genesis
        assert bank(0) in genesis and bank(1) in genesis
        assert len(genesis) == 4 * 2 + 2

    def test_shard_assignment_keeps_owner_accounts_together(self):
        assignment = shard_assignment(8, 4)
        for owner in range(8):
            assert assignment[checking(owner)] == assignment[savings(owner)]

    def test_write_operations_reference_known_accounts(self):
        genesis = smallbank_genesis(6, num_shards=2)
        workload = SmallbankWorkload(6, num_shards=2, seed=5)
        writes = [op for op in (workload.next() for _ in range(240)) if op]
        assert len(writes) >= 150
        for spender, beneficiary, amount in writes:
            assert spender in genesis
            assert beneficiary in genesis
            assert amount > 0

    def test_balance_queries_counted(self):
        workload = SmallbankWorkload(4, seed=6)
        outputs = [workload.next() for _ in range(400)]
        nones = outputs.count(None)
        assert nones == workload.balance_queries
        assert 20 < nones < 120  # ≈15% of the mix

    def test_cross_shard_fraction_near_12_5_percent(self):
        workload = SmallbankWorkload(64, num_shards=4, seed=7)
        for _ in range(6000):
            workload.next()
        # Fraction of WRITES that crossed; the paper's 12.5% is of all
        # transactions — compare accordingly.
        total_ops = workload.total_writes + workload.balance_queries
        cross_of_all = workload.cross_shard_sent / total_ops
        assert 0.09 <= cross_of_all <= 0.16

    def test_single_shard_never_crosses(self):
        workload = SmallbankWorkload(8, num_shards=1, seed=8)
        for _ in range(500):
            workload.next()
        assert workload.cross_shard_sent == 0

    def test_custom_mix_respected(self):
        workload = SmallbankWorkload(
            4, seed=9, mix={"send_payment": 100}
        )
        for _ in range(50):
            spender, beneficiary, _ = workload.next()
            assert spender[2] == "checking"
            assert beneficiary[2] == "checking"

    def test_needs_two_owners(self):
        with pytest.raises(ValueError):
            SmallbankWorkload(1)


GENESIS = {"a": 10**6, "b": 10**6, "c": 10**6, "d": 10**6}


class TestDrivers:
    def test_open_loop_injects_at_rate(self):
        system = Astro2System(num_replicas=4, genesis=dict(GENESIS), seed=1)
        workload = UniformWorkload(list(GENESIS), seed=1)
        meter = ThroughputMeter()
        driver = OpenLoopDriver(
            system, workload, rate=500.0, duration=2.0, meter=meter
        )
        system.run(3.0)
        assert driver.injected == pytest.approx(1000, abs=10)
        assert driver.confirmed > 800

    def test_open_loop_skips_read_only_ops(self):
        system = Astro2System(num_replicas=4, genesis=dict(GENESIS), seed=1)

        class OnlyReads:
            def next(self):
                return None

        driver = OpenLoopDriver(system, OnlyReads(), rate=100.0, duration=1.0)
        system.run(1.5)
        assert driver.injected == 0

    def test_open_loop_rejects_bad_rate(self):
        system = Astro2System(num_replicas=4, genesis=dict(GENESIS), seed=1)
        with pytest.raises(ValueError):
            OpenLoopDriver(system, None, rate=0.0, duration=1.0)

    def test_closed_loop_one_in_flight(self):
        system = Astro2System(num_replicas=4, genesis=dict(GENESIS), seed=2)
        workload = UniformWorkload(list(GENESIS), seed=2)
        meter = ThroughputMeter()
        recorder = LatencyRecorder()
        driver = ClosedLoopDriver(
            system, ["a", "b"], workload, stop_at=2.0,
            meter=meter, recorder=recorder,
        )
        system.run(3.0)
        assert driver.completed > 4
        for node in driver.nodes:
            assert node.in_flight <= 1
        assert recorder.count == driver.completed

    def test_closed_loop_think_time_slows_rate(self):
        def run(think):
            system = Astro2System(num_replicas=4, genesis=dict(GENESIS), seed=3)
            workload = UniformWorkload(list(GENESIS), seed=3)
            driver = ClosedLoopDriver(
                system, ["a"], workload, stop_at=3.0, think_time=think
            )
            system.run(3.5)
            return driver.completed

        assert run(0.0) > run(0.5)

    def test_closed_loop_stops_at_deadline(self):
        system = Astro2System(num_replicas=4, genesis=dict(GENESIS), seed=4)
        workload = UniformWorkload(list(GENESIS), seed=4)
        meter = ThroughputMeter()
        ClosedLoopDriver(system, ["a"], workload, stop_at=1.0, meter=meter)
        system.run(5.0)
        assert meter.count_between(2.0, 5.0) == 0


class TestWorkloadsOnArrayStore:
    """Drivers and workloads against the array-backed account store.

    Smallbank's tuple ClientIds and the drivers' submission paths all
    funnel through the interner + slab views that replaced the
    dict-of-objects store; these runs pin the integration.
    """

    def test_smallbank_open_loop_settles_on_array_store(self):
        genesis = smallbank_genesis(8)
        system = Astro2System(num_replicas=4, genesis=genesis, seed=5)
        workload = SmallbankWorkload(8, seed=5)
        driver = OpenLoopDriver(
            system, workload, rate=300.0, duration=2.0
        )
        system.run(3.0)
        system.settle_all()
        assert driver.confirmed > 100
        state = system.replicas[0].state
        # Tuple client ids round-trip through the interner and readers.
        assert state.knows(checking(0))
        # Σ balances + settled-but-unmaterialized credits is conserved.
        assert system.total_value() == sum(genesis.values())
        assert state.snapshot() == system.replicas[1].state.snapshot()

    def test_closed_loop_settles_on_array_store(self):
        system = Astro2System(num_replicas=4, genesis=dict(GENESIS), seed=6)
        workload = UniformWorkload(list(GENESIS), seed=6)
        driver = ClosedLoopDriver(
            system, ["a", "c"], workload, stop_at=2.0
        )
        system.run(3.0)
        system.settle_all()
        assert driver.completed > 4
        state = system.replicas[0].state
        assert state.seqnum("a") > 0
        assert len(state.xlog("a")) == state.seqnum("a")

"""Property-based system invariants (``repro.adversary.monitor``).

Random workloads over random network schedules must preserve, at every
correct replica of every system: conservation of value, non-negative
balances, per-client sequence monotonicity, cross-replica convergence,
and double-spend freedom.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.system import Astro1System, Astro2System
from repro.consensus.system import BftSystem
from repro.sim import UniformLatency

CLIENTS = ["c0", "c1", "c2", "c3", "c4"]

transfer = st.tuples(
    st.sampled_from(CLIENTS),
    st.sampled_from(CLIENTS),
    st.integers(min_value=1, max_value=120),
)

workload_strategy = st.lists(transfer, min_size=1, max_size=40)

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def genesis():
    return {client: 100 for client in CLIENTS}


def submit_all(system, transfers):
    for spender, beneficiary, amount in transfers:
        if spender == beneficiary:
            continue
        system.submit(spender, beneficiary, amount)


def assert_non_negative(system):
    for replica in system.replicas:
        for client, balance, _, _ in replica.state.accounts():
            assert balance >= 0, f"negative balance for {client!r}: {balance}"


def assert_xlogs_sequential(system):
    for replica in system.replicas:
        for _, _, _, xlog in replica.state.accounts():
            assert [p.seq for p in xlog] == list(range(1, len(xlog) + 1))


def assert_no_double_spend(system):
    """No identifier settles with two different beneficiaries anywhere."""
    seen = {}
    for replica in system.replicas:
        for _, _, _, xlog in replica.state.accounts():
            for payment in xlog:
                key = payment.identifier
                fields = (payment.beneficiary, payment.amount)
                assert seen.setdefault(key, fields) == fields


@settings(**SETTINGS)
@given(transfers=workload_strategy, seed=st.integers(0, 2**16))
def test_astro1_invariants(transfers, seed):
    system = Astro1System(
        num_replicas=4,
        genesis=genesis(),
        latency=UniformLatency(0.001, 0.03, seed=seed),
        seed=seed,
    )
    submit_all(system, transfers)
    system.settle_all()
    # Conservation at every replica (Astro I settles atomically).
    for index in range(4):
        assert system.replicas[index].state.total_balance() == 500
    assert_non_negative(system)
    assert_xlogs_sequential(system)
    assert_no_double_spend(system)
    # Convergence: all replicas end in the same state.
    assert len({r.state.snapshot() for r in system.replicas}) == 1


@settings(**SETTINGS)
@given(transfers=workload_strategy, seed=st.integers(0, 2**16))
def test_astro2_invariants(transfers, seed):
    system = Astro2System(
        num_replicas=4,
        genesis=genesis(),
        latency=UniformLatency(0.001, 0.03, seed=seed),
        seed=seed,
    )
    submit_all(system, transfers)
    system.settle_all()
    assert system.total_value() == 500
    assert_non_negative(system)
    assert_xlogs_sequential(system)
    assert_no_double_spend(system)
    assert len({r.state.snapshot() for r in system.replicas}) == 1


@settings(**SETTINGS)
@given(transfers=workload_strategy, seed=st.integers(0, 2**16))
def test_astro2_sharded_invariants(transfers, seed):
    system = Astro2System(
        num_replicas=4,
        num_shards=2,
        genesis=genesis(),
        latency=UniformLatency(0.001, 0.03, seed=seed),
        seed=seed,
    )
    submit_all(system, transfers)
    system.settle_all()
    assert system.total_value() == 500
    assert_non_negative(system)
    assert_xlogs_sequential(system)
    assert_no_double_spend(system)
    for shard in system.directory.shard_ids:
        snapshots = {
            system.replica_by_node(node).state.snapshot()
            for node in system.directory.members(shard)
        }
        assert len(snapshots) == 1


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(transfers=st.lists(transfer, min_size=1, max_size=15),
       seed=st.integers(0, 2**16))
def test_bft_invariants(transfers, seed):
    system = BftSystem(
        num_replicas=4,
        genesis=genesis(),
        latency=UniformLatency(0.001, 0.03, seed=seed),
        seed=seed,
    )
    submit_all(system, transfers)
    system.settle_all(max_time=20)
    for index in range(4):
        assert system.replicas[index].state.total_balance() == 500
    assert_non_negative(system)
    assert_xlogs_sequential(system)
    assert len({r.state.snapshot() for r in system.replicas}) == 1


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    transfers=st.lists(transfer, min_size=1, max_size=25),
    crash_index=st.integers(0, 3),
    crash_at=st.floats(min_value=0.0, max_value=0.2),
    seed=st.integers(0, 2**16),
)
def test_astro2_invariants_with_crash(transfers, crash_index, crash_at, seed):
    """One crash-stop failure anywhere, any time: surviving replicas
    still satisfy every safety invariant and agree pairwise by prefix."""
    system = Astro2System(
        num_replicas=4,
        genesis=genesis(),
        latency=UniformLatency(0.001, 0.03, seed=seed),
        seed=seed,
    )
    victim = system.replicas[crash_index].node_id
    system.faults.crash(victim, at=crash_at)
    submit_all(system, transfers)
    system.settle_all()
    survivors = [r for r in system.replicas if r.node_id != victim]
    for replica in survivors:
        for client, balance, _, _ in replica.state.accounts():
            assert balance >= 0
        for _, _, _, xlog in replica.state.accounts():
            assert [p.seq for p in xlog] == list(range(1, len(xlog) + 1))
    assert_no_double_spend(system)
    # Survivors agree on every client's settled prefix.
    for client in CLIENTS:
        logs = [replica.state.xlog(client) for replica in survivors]
        reference = max(logs, key=len)
        for log in logs:
            assert log.is_prefix_of(reference)

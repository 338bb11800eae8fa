"""InvariantMonitor unit tests: each invariant actually detects its
violation when correct-replica state is tampered with directly (through
``credit`` or the xlog) or a tampered view is sampled, and a clean run
stays clean."""

import pickle

import pytest

from repro.adversary import InvariantMonitor
from repro.adversary.monitor import replica_state_view
from repro.bench.systems import SYSTEM_BUILDERS, client_ids_of
from repro.core.payment import Payment
from repro.core.xlog import columns_prefix


def settle_full(state, payment):
    """Listing 4 for one ``Payment``: the settle step, depositing."""
    index = state.index(payment.spender)
    assert state.try_settle_spend(index, payment.core, payment.deps, True)


def build(system_name="astro1", size=4, seed=1):
    system = SYSTEM_BUILDERS[system_name](size, seed=seed)
    monitor = InvariantMonitor.watch(system, interval=0.5, until=2.0)
    return system, monitor


def drive(system, payments=8):
    clients = client_ids_of(system)
    for index in range(payments):
        system.submit(clients[index % 4], clients[(index + 1) % 4], 10)
    system.run(2.5)


def violated(monitor):
    return {violation["invariant"] for violation in monitor.violations}


def set_balance(state, client, balance):
    """Tamper: overwrite a balance, through ``credit``."""
    state.credit(client, balance - state.balance(client))


def spent_client(replica):
    return next(c for c, _, seq, _ in replica.state.accounts() if seq)


def test_clean_run_is_clean():
    system, monitor = build()
    drive(system)
    monitor.sample_replicas()
    verdict = monitor.verdict()
    assert verdict["ok"]
    assert verdict["first_violation"] is None
    # Sampled on cadence during the run (0.5 .. 2.0) plus the final call.
    assert monitor.samples == 5


def test_monitor_excludes_byzantine_replicas():
    system = SYSTEM_BUILDERS["astro1"](4, seed=1)
    last = system.replica_node_ids[-1]
    monitor = InvariantMonitor.watch(
        system, byzantine_ids=(last,), until=1.0
    )
    assert all(r.node_id != last for r in monitor.replicas)
    # Tampering with the Byzantine replica's state is not a violation.
    set_balance(system.replica_by_node(last).state, "client-0", -1)
    monitor.sample_replicas()
    assert monitor.verdict()["ok"]


def test_negative_balance_detected():
    system, monitor = build()
    drive(system)
    set_balance(system.replicas[0].state, "client-0", -5)
    monitor.sample_replicas()
    assert "non_negative" in violated(monitor)


def test_seqnum_xlog_mismatch_detected():
    system, monitor = build()
    drive(system)
    replica = system.replicas[1]
    client = spent_client(replica)
    log = replica.state.xlog(client)
    # An xlog entry the seqnum never counted.
    log.append(Payment(client, len(log) + 1, "client-0", 1).core)
    monitor.sample_replicas()
    assert "sequence" in violated(monitor)


def test_xlog_shrink_detected():
    system, monitor = build()
    drive(system)
    monitor.sample_replicas()
    assert monitor.verdict()["ok"]
    replica = system.replicas[2]
    client = spent_client(replica)
    # A view whose xlog and seqnum both lost the last payment: consistent
    # in itself, but shorter than the one sampled before.
    view = replica_state_view(replica)
    size = view["seqnums"][client] = view["seqnums"][client] - 1
    view["xlogs"][client] = columns_prefix(view["xlogs"][client], size)
    monitor.sample(system.sim.now, {replica.node_id: view})
    assert [v["invariant"] for v in monitor.violations] == ["sequence"]
    assert monitor.violations[0]["shrank_to"] == size


def test_double_spend_detected():
    system, monitor = build()
    drive(system)
    # Two correct replicas settle conflicting payments for one identifier.
    clients = client_ids_of(system)
    spare = clients[5]
    for replica, beneficiary in ((system.replicas[0], clients[6]),
                                 (system.replicas[1], clients[7])):
        settle_full(replica.state, Payment(spare, 1, beneficiary, 10))
    monitor.sample_replicas()
    assert "double_spend" in violated(monitor)


def test_conservation_detected_atomic():
    system, monitor = build("astro1")
    drive(system)
    system.replicas[0].state.credit("client-1", 999)
    monitor.sample_replicas()
    assert "conservation" in violated(monitor)


def test_conservation_detected_astro2():
    system, monitor = build("astro2")
    drive(system)
    system.replicas[0].state.credit("client-1", 999)
    monitor.sample_replicas()
    assert "conservation" in violated(monitor)


def test_unvouched_dependency_detected():
    """A materialized dependency no correct replica's xlog can explain is
    itself a conservation violation (fabricated certificate)."""
    system, monitor = build("astro2")
    drive(system)
    replica = system.replicas[0]
    replica._used_deps.setdefault("client-0", {})[("ghost", 1)] = None
    monitor.sample_replicas()
    records = [v for v in monitor.violations if "unknown_dep" in v]
    assert records, monitor.violations


def test_divergent_xlogs_detected():
    system, monitor = build()
    drive(system)
    clients = client_ids_of(system)
    spare = clients[5]
    # Same length, different content: neither log is a prefix of the other.
    settle_full(system.replicas[0].state, Payment(spare, 1, clients[6], 10))
    settle_full(system.replicas[1].state, Payment(spare, 1, clients[6], 20))
    monitor.sample_replicas()
    assert "convergence" in violated(monitor)


def test_first_violation_time_recorded():
    system = SYSTEM_BUILDERS["astro1"](4, seed=1)
    monitor = InvariantMonitor.watch(system, interval=0.5, until=4.0)

    def corrupt():
        set_balance(system.replicas[0].state, "client-0", -1)

    system.sim.schedule_at(2.1, corrupt)
    drive(system, payments=4)
    system.run(4.0)
    verdict = monitor.verdict()
    assert not verdict["ok"]
    # Corruption at t=2.1 is caught at the next sampling tick (t=2.5).
    assert 2.1 < verdict["first_violation"] <= 2.6
    assert verdict["first_violation"] == monitor.first_violation()


def test_monitor_requires_a_correct_replica():
    system = SYSTEM_BUILDERS["astro1"](4, seed=1)
    with pytest.raises(ValueError, match="no correct replicas"):
        InvariantMonitor.watch(
            system, byzantine_ids=tuple(system.replica_node_ids)
        )


def test_stop_halts_sampling():
    system, monitor = build()
    monitor.stop()
    system.run(2.5)
    assert monitor.samples == 0


def test_conservation_covers_clients_outside_genesis():
    """A balance minted for a client genesis never funded breaks Astro II
    conservation as surely as one minted for a genesis client."""
    system, monitor = build("astro2")
    drive(system)
    assert "ghost" not in system.genesis
    system.replicas[0].state.credit("ghost", 50)
    monitor.sample_replicas()
    records = [
        v for v in monitor.violations if v["invariant"] == "conservation"
    ]
    assert records == [
        {
            "time": system.sim.now, "invariant": "conservation",
            "replica": system.replicas[0].node_id, "client": "'ghost'",
            "balance": 50, "expected": 0,
        }
    ]


# ---------------------------------------------------------------------------
# One checking path: the simulator's cadence and a live feed of views
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("system_name", ["astro1", "astro2"])
@pytest.mark.parametrize("tampered", [False, True])
def test_watch_and_fed_views_give_one_verdict(system_name, tampered):
    """``watch`` and a monitor fed pickled views — what the live
    cluster's parent receives — reach one verdict on one system."""
    system, watched = build(system_name)
    fed = InvariantMonitor(
        {r.node_id: replica_state_view(r) for r in system.replicas},
        system.directory,
    )
    drive(system)
    if tampered:
        system.replicas[0].state.credit("client-1", 999)
    for _ in range(2):
        watched.sample_replicas()
        fed.sample(system.sim.now, {
            r.node_id: pickle.loads(pickle.dumps(replica_state_view(r)))
            for r in system.replicas
        })
    assert watched.verdict()["ok"] is not tampered
    keys = ("ok", "first_violation", "violations")
    assert {key: fed.verdict()[key] for key in keys} == {
        key: watched.verdict()[key] for key in keys
    }

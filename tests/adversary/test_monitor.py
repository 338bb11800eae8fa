"""InvariantMonitor unit tests: each invariant actually detects its
violation when correct-replica state is tampered with directly, and a
clean run stays clean."""

import pytest

from repro.adversary import InvariantMonitor
from repro.bench.systems import SYSTEM_BUILDERS, client_ids_of
from repro.core.payment import Payment


def build(system_name="astro1", size=4, seed=1):
    system = SYSTEM_BUILDERS[system_name](size, seed=seed)
    monitor = InvariantMonitor(system, interval=0.5, until=2.0)
    return system, monitor


def drive(system, payments=8):
    clients = client_ids_of(system)
    for index in range(payments):
        system.submit(clients[index % 4], clients[(index + 1) % 4], 10)
    system.run(2.5)


def violated(monitor):
    return {violation["invariant"] for violation in monitor.violations}


def test_clean_run_is_clean():
    system, monitor = build()
    drive(system)
    monitor.sample()
    verdict = monitor.verdict()
    assert verdict["ok"]
    assert verdict["first_violation"] is None
    # Sampled on cadence during the run (0.5 .. 2.0) plus the final call.
    assert monitor.samples == 5


def test_monitor_excludes_byzantine_replicas():
    system = SYSTEM_BUILDERS["astro1"](4, seed=1)
    last = system.replica_node_ids[-1]
    monitor = InvariantMonitor(system, byzantine_ids=(last,), until=1.0)
    assert all(r.node_id != last for r in monitor.replicas)
    # Tampering with the Byzantine replica's state is not a violation.
    system.replica_by_node(last).state.balances["client-0"] = -1
    monitor.sample()
    assert monitor.verdict()["ok"]


def test_negative_balance_detected():
    system, monitor = build()
    drive(system)
    system.replicas[0].state.balances["client-0"] = -5
    monitor.sample()
    assert "non_negative" in violated(monitor)


def test_seqnum_xlog_mismatch_detected():
    system, monitor = build()
    drive(system)
    replica = system.replicas[1]
    client = next(c for c, log in replica.state.xlogs.items() if len(log))
    replica.state.seqnums[client] += 1
    monitor.sample()
    assert "sequence" in violated(monitor)


def test_xlog_shrink_detected():
    system, monitor = build()
    drive(system)
    monitor.sample()
    assert monitor.verdict()["ok"]
    replica = system.replicas[2]
    client = next(c for c, log in replica.state.xlogs.items() if len(log))
    replica.state.xlogs[client]._entries.pop()
    replica.state.seqnums[client] -= 1
    monitor.sample()
    assert "sequence" in violated(monitor)


def test_double_spend_detected():
    system, monitor = build()
    drive(system)
    # Two correct replicas settle conflicting payments for one identifier.
    clients = client_ids_of(system)
    spare = clients[5]
    for replica, beneficiary in ((system.replicas[0], clients[6]),
                                 (system.replicas[1], clients[7])):
        replica.state.xlogs[spare]._entries.append(
            Payment(spare, 1, beneficiary, 10)
        )
        replica.state.seqnums[spare] = 1
        replica.state.balances[spare] -= 10
        replica.state.balances[beneficiary] = (
            replica.state.balances.get(beneficiary, 0) + 10
        )
    monitor.sample()
    assert "double_spend" in violated(monitor)


def test_conservation_detected_atomic():
    system, monitor = build("astro1")
    drive(system)
    system.replicas[0].state.balances["client-1"] += 999
    monitor.sample()
    assert "conservation" in violated(monitor)


def test_conservation_detected_astro2():
    system, monitor = build("astro2")
    drive(system)
    system.replicas[0].state.balances["client-1"] += 999
    monitor.sample()
    assert "conservation" in violated(monitor)


def test_unvouched_dependency_detected():
    """A materialized dependency no correct replica's xlog can explain is
    itself a conservation violation (fabricated certificate)."""
    system, monitor = build("astro2")
    drive(system)
    replica = system.replicas[0]
    replica._used_deps.setdefault("client-0", {})[("ghost", 1)] = None
    monitor.sample()
    records = [v for v in monitor.violations if "unknown_dep" in v]
    assert records, monitor.violations


def test_divergent_xlogs_detected():
    system, monitor = build()
    drive(system)
    clients = client_ids_of(system)
    spare = clients[5]
    # Same length, different content: neither log is a prefix of the other.
    system.replicas[0].state.xlogs[spare]._entries.append(
        Payment(spare, 1, clients[6], 10)
    )
    system.replicas[1].state.xlogs[spare]._entries.append(
        Payment(spare, 1, clients[6], 20)
    )
    for replica in system.replicas[:2]:
        replica.state.seqnums[spare] = 1
        replica.state.balances[spare] -= 10
    monitor.sample()
    assert "convergence" in violated(monitor)


def test_first_violation_time_recorded():
    system = SYSTEM_BUILDERS["astro1"](4, seed=1)
    monitor = InvariantMonitor(system, interval=0.5, until=4.0)

    def corrupt():
        system.replicas[0].state.balances["client-0"] = -1

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
        InvariantMonitor(
            system, byzantine_ids=tuple(system.replica_node_ids)
        )


def test_stop_halts_sampling():
    system, monitor = build()
    monitor.stop()
    system.run(2.5)
    assert monitor.samples == 0

"""Unit tests for fault injection."""

import pytest

from repro.sim.events import Simulator
from repro.sim.faults import FaultInjector
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.sim.node import Node


def build(n=4):
    sim = Simulator()
    network = Network(sim, latency=ConstantLatency(0.01))
    nodes = [Node(sim, i, network) for i in range(n)]
    faults = FaultInjector(sim, network)
    return sim, network, nodes, faults


def test_crash_scheduled_at_time():
    sim, network, nodes, faults = build()
    faults.crash(2, at=1.0)
    sim.run(until=0.5)
    assert not network.is_crashed(2)
    sim.run(until=1.5)
    assert network.is_crashed(2)
    assert faults.log == [(1.0, "crash", 2)]


def test_crash_in_past_fires_now():
    sim, network, nodes, faults = build()
    sim.schedule(2.0, lambda: None)
    sim.run_until_idle()
    faults.crash(1, at=0.0)
    sim.run_until_idle()
    assert network.is_crashed(1)


def test_delay_egress_applies_at_time():
    sim, network, nodes, faults = build()
    received = []
    nodes[1].on(str, lambda src, msg: received.append(sim.now))
    faults.delay_egress(0, 0.2, at=1.0)
    nodes[0].send(1, "fast")
    sim.run(until=1.0)
    nodes[0].send(1, "slow")
    sim.run_until_idle()
    assert received[0] < 0.1
    assert received[1] >= 1.2


def test_partition_and_heal():
    """``heal`` clears every link fault — partitions and egress delays,
    as the chaos grammar and the live injector say — and no crash."""
    sim, network, nodes, faults = build()
    received = []
    nodes[2].on(str, lambda src, msg: received.append((sim.now, msg)))
    faults.partition([0, 1], [2, 3], at=0.0)
    faults.delay_egress(0, 0.2, at=0.0)
    faults.crash(3, at=0.0)
    sim.run(until=0.1)
    nodes[0].send(2, "lost")
    sim.run(until=0.5)
    assert received == []
    faults.heal(at=0.6)
    sim.run(until=0.7)
    nodes[0].send(2, "found")
    sim.run_until_idle()
    # Sent at 0.7 over a 10 ms link: the 200 ms delay is gone too.
    assert received == [(pytest.approx(0.71, abs=1e-3), "found")]
    assert network.is_crashed(3)


def test_fault_log_records_all_kinds():
    sim, network, nodes, faults = build()
    faults.crash(0, at=0.1)
    faults.delay_egress(1, 0.05, at=0.2)
    faults.partition([0], [1], at=0.3)
    faults.heal(at=0.4)
    sim.run_until_idle()
    kinds = [entry[1] for entry in faults.log]
    assert kinds == ["crash", "delay", "partition", "heal"]


def test_recover_scheduled_at_time():
    sim, network, nodes, faults = build()
    received = []
    nodes[2].on(str, lambda src, msg: received.append((sim.now, msg)))
    faults.crash(2, at=0.5)
    faults.recover(2, at=1.5)
    sim.run(until=1.0)
    assert network.is_crashed(2)
    nodes[0].send(2, "while-down")
    sim.run(until=1.4)
    assert received == []  # dropped, never redelivered
    sim.run(until=1.6)
    assert not network.is_crashed(2)
    nodes[0].send(2, "after-recovery")
    sim.run_until_idle()
    assert [msg for _, msg in received] == ["after-recovery"]
    assert faults.log == [(0.5, "crash", 2), (1.5, "recover", 2)]


def test_recover_in_past_fires_now():
    sim, network, nodes, faults = build()
    faults.crash(1, at=0.0)
    sim.run_until_idle()
    faults.recover(1, at=0.0)
    sim.run_until_idle()
    assert not network.is_crashed(1)


def test_partition_overlapping_groups_rejected():
    sim, network, nodes, faults = build()
    with pytest.raises(ValueError, match="disjoint.*\\[1\\]"):
        faults.partition([0, 1], [1, 2])
    # Nothing was scheduled, nothing blocked.
    sim.run_until_idle()
    assert faults.log == []
    received = []
    nodes[1].on(str, lambda src, msg: received.append(msg))
    nodes[1].on(int, lambda src, msg: received.append(msg))
    nodes[0].send(1, "through")
    nodes[1].send(1, 7)  # loopback stays intact
    sim.run_until_idle()
    assert len(received) == 2 and set(received) == {7, "through"}


def test_crash_recover_timeline():
    """A crash→recover fault timeline on a full system (§VI-D shape).

    N=7 tolerates the crash (f=2); after recovery the node rejoins the
    network — it receives again and the run keeps settling payments
    through the whole window.
    """
    from repro.bench.systems import build_astro1
    from repro.bench.timeline import run_timeline

    system = build_astro1(7, seed=3)
    victim = system.replica_node_ids[-1]

    result = run_timeline(
        system, num_clients=6, warmup=1.0, window=4.0,
        timeline=f"crash:{victim}@1.0;recover:{victim}@2.5", seed=3,
    )
    # Timeline times count from the start of the window (warmup=1.0).
    assert system.faults.log == [
        (2.0, "crash", victim), (3.5, "recover", victim),
    ]
    assert result.fault_at == 2.0
    assert not system.network.is_crashed(victim)
    assert system.replica_by_node(victim).alive
    assert result.completed > 0
    # Settlement continued after the recovery point (last window second).
    assert result.series[-1] > 0


def test_partition_duplicate_members_deduplicated():
    sim, network, nodes, faults = build()
    faults.partition([0, 0, 1], [2, 2, 3], at=0.0)
    sim.run_until_idle()
    (_, kind, pairs), = faults.log
    assert kind == "partition"
    assert list(pairs) == sorted(set(pairs))
    assert set(pairs) == {(0, 2), (0, 3), (1, 2), (1, 3)}

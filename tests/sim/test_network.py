"""Unit tests for the simulated network: delivery, faults, partitions."""

import pytest

from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.network import Network
from repro.sim.node import Node


def build(n=3, delay=0.01):
    sim = Simulator()
    network = Network(sim, latency=ConstantLatency(delay))
    nodes = [Node(sim, i, network) for i in range(n)]
    return sim, network, nodes


def test_basic_delivery_with_latency():
    sim, network, nodes = build(delay=0.02)
    got = []
    nodes[1].on(str, lambda src, msg: got.append((src, msg, sim.now)))
    nodes[0].send(1, "hello", size=100)
    sim.run_until_idle()
    assert len(got) == 1
    src, msg, at = got[0]
    assert (src, msg) == (0, "hello")
    assert at >= 0.02  # latency + serialization + CPU service


def test_loopback_skips_latency():
    sim, network, nodes = build(delay=0.5)
    got = []
    nodes[0].on(str, lambda src, msg: got.append(sim.now))
    nodes[0].send(0, "self", size=100)
    sim.run_until_idle()
    assert got and got[0] < 0.01


def test_crashed_source_sends_nothing():
    sim, network, nodes = build()
    got = []
    nodes[1].on(str, lambda src, msg: got.append(msg))
    network.crash(0)
    nodes[0].send(1, "x")
    sim.run_until_idle()
    assert got == []


def test_crash_at_delivery_time_drops_message():
    sim, network, nodes = build(delay=0.1)
    got = []
    nodes[1].on(str, lambda src, msg: got.append(msg))
    nodes[0].send(1, "x")
    sim.schedule(0.01, network.crash, 1)
    sim.run_until_idle()
    assert got == []
    assert network.stats.messages_dropped == 1


def test_recover_allows_future_delivery():
    sim, network, nodes = build()
    got = []
    nodes[1].on(str, lambda src, msg: got.append(msg))
    network.crash(1)
    network.recover(1)
    nodes[0].send(1, "x")
    sim.run_until_idle()
    assert got == ["x"]


def test_egress_delay_injection():
    sim, network, nodes = build(delay=0.01)
    times = []
    nodes[1].on(str, lambda src, msg: times.append(sim.now))
    nodes[0].send(1, "before")
    sim.run_until_idle()
    network.set_egress_delay(0, 0.1)
    nodes[0].send(1, "after")
    sim.run_until_idle()
    assert times[1] - times[0] >= 0.1


def test_egress_delay_cleared_with_nonpositive():
    sim, network, nodes = build()
    network.set_egress_delay(0, 0.1)
    network.set_egress_delay(0, 0.0)
    times = []
    nodes[1].on(str, lambda src, msg: times.append(sim.now))
    nodes[0].send(1, "x")
    sim.run_until_idle()
    assert times[0] < 0.1


def test_partition_blocks_directionally():
    sim, network, nodes = build()
    got = []
    nodes[1].on(str, lambda src, msg: got.append(msg))
    nodes[0].on(str, lambda src, msg: got.append(msg))
    network.block(0, 1)
    nodes[0].send(1, "lost")
    nodes[1].send(0, "through")
    sim.run_until_idle()
    assert got == ["through"]


def test_heal_restores_connectivity():
    sim, network, nodes = build()
    got = []
    nodes[1].on(str, lambda src, msg: got.append(msg))
    network.block(0, 1)
    network.heal()
    nodes[0].send(1, "x")
    sim.run_until_idle()
    assert got == ["x"]


def test_duplicate_node_id_rejected():
    sim, network, nodes = build()
    with pytest.raises(ValueError):
        Node(sim, 0, network)


def test_unknown_source_raises():
    sim, network, nodes = build()
    with pytest.raises(ValueError):
        network.send(99, 0, "x")


def test_unknown_destination_dropped_silently():
    sim, network, nodes = build()
    nodes[0].send(99, "x")
    sim.run_until_idle()
    assert network.stats.messages_dropped == 1


def test_stats_counters():
    sim, network, nodes = build()
    nodes[1].on(str, lambda src, msg: None)
    nodes[0].send(1, "x", size=123)
    sim.run_until_idle()
    assert network.stats.messages_sent == 1
    assert network.stats.messages_delivered == 1
    assert network.stats.bytes_sent == 123


def test_kind_tracking():
    sim = Simulator()
    network = Network(sim, latency=ConstantLatency(0.01), track_kinds=True)
    nodes = [Node(sim, i, network) for i in range(2)]
    nodes[0].send(1, "x")
    nodes[0].send(1, 42)
    sim.run_until_idle()
    assert network.stats.by_kind == {"str": 1, "int": 1}


def test_unknown_message_type_ignored():
    sim, network, nodes = build()
    nodes[0].send(1, object())
    sim.run_until_idle()  # must not raise


def test_timer_suppressed_after_crash():
    sim, network, nodes = build()
    fired = []
    nodes[0].set_timer(1.0, fired.append, True)
    network.crash(0)
    sim.run_until_idle()
    assert fired == []


# ---------------------------------------------------------------------------
# Broadcast == one send per target: the equivalence Network.broadcast
# documents (times, order, events executed, drops)
# ---------------------------------------------------------------------------

class _PairLatency(LatencyModel):
    """Deterministic pair-varying delay: arrival order != target order."""

    def sample(self, src, dst):
        return 0.01 + 0.001 * ((7 * src + 13 * dst) % 5)


def _fanout_history(fanout, use_broadcast, block=(), crash_at=None):
    """History of staggered fan-outs from each of 17 nodes to its next
    ``fanout`` peers, via ``node.broadcast`` or a ``node.send`` loop."""
    n = 17
    sim = Simulator()
    network = Network(sim, latency=_PairLatency())
    nodes = [Node(sim, i, network) for i in range(n)]
    history = []
    for node in nodes:
        node.on(tuple, lambda src, msg, _id=node.node_id:
                history.append((sim.now, src, _id, msg)))
    for a, b in block:
        network.block(a, b)

    def fan_out(node, targets, payload):
        if use_broadcast:
            node.broadcast(targets, payload, 120)
        else:
            for dst in targets:
                node.send(dst, payload, 120)

    for node in nodes:
        targets = [(node.node_id + k) % n for k in range(1, fanout + 1)]
        sim.schedule(0.001 * node.node_id, fan_out, node, targets,
                     ("payload", node.node_id))
    if crash_at is not None:
        victim, at = crash_at
        sim.schedule(at, network.crash, victim)
    sim.run_until_idle()
    stats = network.stats
    return (history, sim.events_executed, sim.now, stats.messages_sent,
            stats.bytes_sent, stats.messages_delivered, stats.messages_dropped)


@pytest.mark.parametrize("fanout", [0, 1, 3, 10, 16])
def test_broadcast_history_identical_to_send_loop(fanout):
    broadcast = _fanout_history(fanout, use_broadcast=True)
    sends = _fanout_history(fanout, use_broadcast=False)
    assert broadcast == sends
    assert len(broadcast[0]) == 17 * fanout


@pytest.mark.parametrize("fanout", [1, 3, 10, 16])
def test_broadcast_respects_partitions(fanout):
    blocked = {(0, 1), (0, 3), (0, 7), (2, 3), (2, 5), (16, 0)}
    broadcast = _fanout_history(fanout, use_broadcast=True, block=blocked)
    sends = _fanout_history(fanout, use_broadcast=False, block=blocked)
    assert broadcast == sends
    assert broadcast[-1] != 0  # the partition did drop copies


@pytest.mark.parametrize("fanout", [1, 3, 10, 16])
def test_broadcast_drops_at_crashed_destination(fanout):
    crash = (4, 0.012)  # mid-flight: later arrivals at node 4 are dropped
    broadcast = _fanout_history(fanout, use_broadcast=True, crash_at=crash)
    sends = _fanout_history(fanout, use_broadcast=False, crash_at=crash)
    assert broadcast == sends
    assert broadcast[-1] != 0


def test_broadcast_single_calendar_entry():
    sim = Simulator()
    network = Network(sim, latency=ConstantLatency(0.01))
    nodes = [Node(sim, i, network) for i in range(12)]
    nodes[0].broadcast([n.node_id for n in nodes[1:]], "x", 100)
    # 11 in-flight arrivals ride one train entry (a send loop would
    # hold 11).
    assert sim.pending == 1
    nodes[1].broadcast([2], "y", 100)  # so does a fan-out of one ...
    assert sim.pending == 2
    nodes[2].broadcast([], "z", 100)   # ... and an empty one adds nothing
    assert sim.pending == 2
    got = []
    nodes[5].on(str, lambda src, msg: got.append(msg))
    sim.run_until_idle()
    assert got == ["x"]

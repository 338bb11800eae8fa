"""Unit tests for the Node actor base class."""

import pytest

from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.sim.node import Node


def build(n=4):
    sim = Simulator()
    network = Network(sim, latency=ConstantLatency(0.005))
    nodes = [Node(sim, i, network) for i in range(n)]
    return sim, network, nodes


def test_handler_dispatch_by_type():
    sim, network, nodes = build()
    strings, numbers = [], []
    nodes[1].on(str, lambda src, m: strings.append(m))
    nodes[1].on(int, lambda src, m: numbers.append(m))
    nodes[0].send(1, "text")
    nodes[0].send(1, 42)
    sim.run_until_idle()
    assert strings == ["text"]
    assert numbers == [42]


def test_handler_overwrite():
    sim, network, nodes = build()
    seen = []
    nodes[1].on(str, lambda src, m: seen.append(("first", m)))
    nodes[1].on(str, lambda src, m: seen.append(("second", m)))
    nodes[0].send(1, "x")
    sim.run_until_idle()
    assert seen == [("second", "x")]


def test_send_cost_occupies_cpu():
    sim, network, nodes = build()
    before = nodes[0].cpu.busy_time
    nodes[0].send(1, "x", send_cost=0.001)
    assert nodes[0].cpu.busy_time == pytest.approx(before + 0.0005)  # 2 cores


def test_timer_fires_when_alive():
    sim, network, nodes = build()
    fired = []
    nodes[0].set_timer(0.5, fired.append, "tick")
    sim.run_until_idle()
    assert fired == ["tick"]


def test_alive_property():
    sim, network, nodes = build()
    assert nodes[2].alive
    network.crash(2)
    assert not nodes[2].alive
    network.recover(2)
    assert nodes[2].alive


def test_messages_between_custom_sizes_account_bandwidth():
    sim, network, nodes = build()
    nodes[1].on(bytes, lambda src, m: None)
    before = nodes[0].link.busy_time
    nodes[0].send(1, b"payload", size=30 * 1024 * 1024)  # 1 second of NIC
    assert nodes[0].link.busy_time - before == pytest.approx(1.0)


class _RecordingTap:
    """Forwards every send, recording what it saw."""

    def __init__(self):
        self.seen = []

    def bind(self, raw_send, raw_broadcast):
        self.raw_send, self.raw_broadcast = raw_send, raw_broadcast

    def send(self, dst, payload, size=256, recv_cost=None, send_cost=0.0):
        self.seen.append((dst, payload, size, recv_cost, send_cost))
        self.raw_send(dst, payload, size=size, recv_cost=recv_cost,
                      send_cost=send_cost)

    def broadcast(self, targets, payload, size=256, recv_cost=None,
                  send_cost=0.0):
        self.raw_broadcast(targets, payload, size=size, recv_cost=recv_cost,
                           send_cost=send_cost)


def test_egress_tap_sees_every_item_of_send_each():
    sim, network, nodes = build()
    got = []
    for node in nodes[1:]:
        node.on(str, lambda src, msg: got.append(msg))
    tap = _RecordingTap()
    nodes[0].install_egress_tap(tap)
    sends = [(1, "a", 100, None), (3, "b", 120, 0.001)]
    nodes[0].send_each(sends)
    assert tap.seen == [item + (0.0,) for item in sends]
    nodes[0].remove_egress_tap()
    nodes[0].send_each([(2, "c", 100, None)])
    assert len(tap.seen) == 2
    assert "send_each" not in vars(nodes[0])
    sim.run_until_idle()
    assert sorted(got) == ["a", "b", "c"]

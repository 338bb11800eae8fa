"""Transport/Clock contract conformance across both backends.

The tentpole guarantee: protocol objects are written against
:class:`repro.transport.interface.Transport` and run unchanged on the
simulator :class:`~repro.sim.node.Node` or the asyncio
:class:`~repro.transport.tcp.TcpTransport`.  These tests pin the shared
surface (runtime-checkable protocols, liveness accessors, endpoint
delegation) so a drift in either backend fails here, not in a live run.
"""

from __future__ import annotations

import asyncio
from typing import Any, List

import pytest

from repro.sim import ConstantLatency, Network, Node, Simulator
from repro.transport.clock import RealTimeClock
from repro.transport.endpoint import ProtocolEndpoint
from repro.transport.interface import Clock, Transport
from repro.transport.tcp import TcpTransport


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def network(sim):
    return Network(sim, ConstantLatency(0.005))


# ---------------------------------------------------------------------------
# Structural conformance
# ---------------------------------------------------------------------------
def test_simulator_node_satisfies_transport(sim, network):
    node = Node(sim, 0, network)
    assert isinstance(node, Transport)
    assert isinstance(node.clock, Clock)
    assert isinstance(sim, Clock)


def test_tcp_transport_satisfies_transport():
    transport = TcpTransport(0, b"secret")
    assert isinstance(transport, Transport)
    assert isinstance(transport.clock, Clock)
    assert isinstance(RealTimeClock(), Clock)


def test_both_backends_share_handler_registration(sim, network):
    class Msg:
        pass

    for transport in (Node(sim, 0, network), TcpTransport(0, b"secret")):
        transport.on(Msg, lambda src, msg: None)
        assert transport._handlers[Msg] is not None


# ---------------------------------------------------------------------------
# Liveness accessors (PR satellite: no private Network state pokes)
# ---------------------------------------------------------------------------
def test_crashed_view_is_live_and_shared(sim, network):
    node = Node(sim, 3, network)
    view = network.crashed_view()
    assert node.alive
    network.crash(3)
    assert 3 in view  # mutated in place, never replaced
    assert not node.alive
    assert network.is_crashed(3)
    network.recover(3)
    assert node.alive
    assert 3 not in view


# ---------------------------------------------------------------------------
# ProtocolEndpoint delegation
# ---------------------------------------------------------------------------
class _Echo:
    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


def test_endpoint_delegates_to_simulator_node(sim, network):
    sender = ProtocolEndpoint(Node(sim, 0, network))
    receiver = Node(sim, 1, network)
    inbox: List[Any] = []
    receiver.on(_Echo, lambda src, msg: inbox.append((src, msg.value)))

    assert sender.node_id == 0
    assert sender.clock is sim
    assert sender.alive
    sender.send(1, _Echo("direct"))
    sender.broadcast([1], _Echo("fanout"))
    fired: List[str] = []
    sender.set_timer(0.5, fired.append, "timer")
    sim.run()
    assert ("0-resolved", fired) == ("0-resolved", ["timer"])
    assert sorted(v for _, v in inbox) == ["direct", "fanout"]
    # sim-backend-only conveniences resolve through the transport
    assert sender.sim is sim
    assert sender.network is network
    assert sender.cpu is sender.transport.cpu


def test_endpoint_send_sees_tap_installed_after_construction(sim, network):
    """Taps installed through the endpoint mid-run must intercept the
    endpoint's cached send/broadcast (install/remove re-resolve them)."""
    node = Node(sim, 0, network)
    endpoint = ProtocolEndpoint(node)
    receiver = Node(sim, 1, network)
    receiver.on(_Echo, lambda src, msg: None)

    intercepted: List[Any] = []

    class Tap:
        def bind(self, raw_send, raw_broadcast):
            self._raw_send = raw_send
            self._raw_broadcast = raw_broadcast

        def send(self, dst, payload, size=256, recv_cost=None, send_cost=0.0):
            intercepted.append(("send", dst, payload.value))

        def broadcast(
            self, targets, payload, size=256, recv_cost=None, send_cost=0.0
        ):
            intercepted.append(("broadcast", tuple(targets), payload.value))

    endpoint.install_egress_tap(Tap())
    endpoint.send(1, _Echo("tapped"))
    endpoint.broadcast([1], _Echo("tapped-bcast"))
    assert intercepted == [
        ("send", 1, "tapped"),
        ("broadcast", (1,), "tapped-bcast"),
    ]
    endpoint.remove_egress_tap()
    endpoint.send(1, _Echo("clear"))
    assert len(intercepted) == 2


def test_endpoint_sim_properties_raise_on_tcp_backend():
    endpoint = ProtocolEndpoint(TcpTransport(0, b"secret"))
    with pytest.raises(AttributeError):
        endpoint.sim
    with pytest.raises(AttributeError):
        endpoint.network


# ---------------------------------------------------------------------------
# RealTimeClock semantics
# ---------------------------------------------------------------------------
def test_real_time_clock_schedule_and_cancel():
    async def scenario():
        clock = RealTimeClock()
        fired: List[str] = []
        clock.schedule(0.01, fired.append, "a")
        handle = clock.schedule(0.01, fired.append, "never")
        handle.cancel()
        handle.cancel()  # idempotent
        clock.schedule_at(clock.now + 0.02, fired.append, "b")
        with pytest.raises(ValueError):
            clock.schedule(-1.0, fired.append, "negative")
        await asyncio.sleep(0.05)
        assert fired == ["a", "b"]
        assert clock.now > 0

    asyncio.run(scenario())

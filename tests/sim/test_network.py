"""Unit tests for the simulated network: delivery, faults, partitions."""

import pytest

from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency, LatencyModel, europe_wan
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


def test_crash_between_arrival_and_service_drops_message():
    sim, network, nodes = build(delay=0.01)
    got = []
    nodes[1].on(str, lambda src, msg: got.append(msg))
    nodes[0].send(1, "x", recv_cost=0.5)  # arrives at ≈ 0.01, served ≈ 0.26
    sim.schedule(0.1, network.crash, 1)
    sim.run_until_idle()
    assert got == []
    assert nodes[1].cpu.jobs_served == 1  # it had arrived
    assert network.stats.messages_dropped == 1
    assert network.stats.messages_delivered == 0


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


def _fanout_history(fanout, via, block=(), crash_at=None,
                    latency=_PairLatency, egress=None, recv_cost=None,
                    send_cost=0.0, per_copy=False, network_class=Network):
    """History of two staggered fan-outs from each of 17 nodes to its next
    ``fanout`` peers, ``via`` ``node.broadcast``, a ``node.send`` loop or
    ``node.send_each`` (the caller charging the send costs first).

    ``latency`` builds the model (models hold RNG state, so each run
    gets its own); ``egress`` is a ``(node, extra delay)`` injection;
    ``per_copy`` varies payload, size and receive cost (some copies the
    default) by destination.  The history ends with every node's link
    and CPU busy time (as ``float.hex``) and jobs served, the victim's
    CPU backlog when the crash hit (> 0: a copy had arrived there and
    was still waiting for service), and the dropped count.
    """
    n = 17
    sim = Simulator()
    network = network_class(sim, latency=latency())
    nodes = [Node(sim, i, network) for i in range(n)]
    history = []
    for node in nodes:
        node.on(tuple, lambda src, msg, _id=node.node_id:
                history.append((sim.now, src, _id, msg)))
    for a, b in block:
        network.block(a, b)
    if egress is not None:
        network.set_egress_delay(*egress)

    def copy(dst, payload):
        # 131 B: its link time, unlike 120 B's 2**-18 s, is inexact, so
        # summing it per copy and multiplying it differ.
        if not per_copy:
            return dst, payload, 131, recv_cost
        cost = None if recv_cost is None or dst % 3 == 0 else recv_cost * dst
        return dst, payload + (dst,), 131 + 7 * dst, cost

    def fan_out(node, targets, payload):
        if via == "broadcast":
            assert not per_copy
            node.broadcast(targets, payload, 131, recv_cost=recv_cost,
                           send_cost=send_cost)
        elif via == "send_each":
            if send_cost:
                for _dst in targets:
                    node.charge(send_cost)
            node.send_each([copy(dst, payload) for dst in targets])
        else:
            for dst in targets:
                node.send(*copy(dst, payload), send_cost=send_cost)

    for node in nodes:
        targets = [(node.node_id + k) % n for k in range(1, fanout + 1)]
        # A second fan-out 20 µs later adds to the link's busy time; from
        # six copies on, it queues behind the first.
        for start in (0.0, 0.00002):
            sim.schedule(start + 0.001 * node.node_id, fan_out, node, targets,
                         ("payload", node.node_id))
    backlog_at_crash = []
    if crash_at is not None:
        victim, at = crash_at

        def crash():
            backlog_at_crash.append(nodes[victim].cpu.backlog)
            network.crash(victim)

        sim.schedule(at, crash)
    sim.run_until_idle()
    stats = network.stats
    servers = [(node.link.busy_time.hex(), node.link.jobs_served,
                node.cpu.busy_time.hex(), node.cpu.jobs_served)
               for node in nodes]
    return (history, sim.events_executed, sim.now, stats.messages_sent,
            stats.bytes_sent, stats.messages_delivered, servers,
            backlog_at_crash, stats.messages_dropped)


@pytest.mark.parametrize("fanout", [0, 1, 3, 10, 16])
def test_broadcast_history_identical_to_send_loop(fanout):
    broadcast = _fanout_history(fanout, via="broadcast")
    sends = _fanout_history(fanout, via="send")
    assert broadcast == sends
    assert len(broadcast[0]) == 2 * 17 * fanout


@pytest.mark.parametrize("fanout", [1, 3, 10, 16])
def test_broadcast_respects_partitions(fanout):
    blocked = {(0, 1), (0, 3), (0, 7), (2, 3), (2, 5), (16, 0)}
    broadcast = _fanout_history(fanout, via="broadcast", block=blocked)
    sends = _fanout_history(fanout, via="send", block=blocked)
    assert broadcast == sends
    assert broadcast[-1] != 0  # the partition did drop copies


@pytest.mark.parametrize("fanout", [1, 3, 10, 16])
def test_broadcast_drops_at_crashed_destination(fanout):
    crash = (4, 0.012)  # mid-flight: later arrivals at node 4 are dropped
    broadcast = _fanout_history(fanout, via="broadcast", crash_at=crash)
    sends = _fanout_history(fanout, via="send", crash_at=crash)
    assert broadcast == sends
    assert broadcast[-1] != 0


def _builders_wan():
    # What the benchmark builders sample from.
    return europe_wan(17, seed=11, pair_streams=True)


@pytest.mark.parametrize("fanout", [1, 3, 10, 16])
def test_broadcast_identical_to_send_loop_on_the_builders_model(fanout):
    """Pair-stream WAN delays, an egress delay on one sender, a crash
    between some copy's arrival and its service, a send cost and a
    partition."""
    setup = dict(
        latency=_builders_wan, egress=(2, 0.003), recv_cost=0.01,
        send_cost=0.0007, crash_at=(5, 0.0125), block={(0, 1), (3, 4)},
    )
    broadcast = _fanout_history(fanout, via="broadcast", **setup)
    sends = _fanout_history(fanout, via="send", **setup)
    assert broadcast == sends
    history, *_rest, backlog_at_crash, dropped = broadcast
    assert backlog_at_crash[0] > 0  # a copy was in service at node 5
    assert dropped != 0
    assert any(src == 2 for _at, src, _dst, _msg in history)


def test_a_blocked_pair_draws_no_delay_from_a_shared_stream():
    def run(block):
        sim = Simulator()
        model = europe_wan(4, seed=3)  # one RNG shared by every pair
        network = Network(sim, latency=model)
        nodes = [Node(sim, i, network) for i in range(4)]
        if block:
            network.block(0, 2)
        nodes[0].broadcast([1, 2, 3], "x", 100)
        return model._rng.getstate()

    twin = europe_wan(4, seed=3)
    twin.sample(0, 1)
    twin.sample(0, 3)
    assert run(block=True) == twin._rng.getstate()
    assert run(block=False) != twin._rng.getstate()


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


# ---------------------------------------------------------------------------
# send_each == one send per item: per-destination payloads, sizes and
# receive costs, one train
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fanout", [0, 1, 3, 10, 16])
def test_send_each_history_identical_to_send_loop(fanout):
    each = _fanout_history(fanout, via="send_each", per_copy=True,
                           recv_cost=0.0003, send_cost=0.0002)
    sends = _fanout_history(fanout, via="send", per_copy=True,
                            recv_cost=0.0003, send_cost=0.0002)
    assert each == sends
    assert len(each[0]) == 2 * 17 * fanout


@pytest.mark.parametrize("pair_streams", [True, False])
@pytest.mark.parametrize("fanout", [1, 3, 10, 16])
def test_send_each_identical_to_send_loop_on_the_wan(fanout, pair_streams):
    """Pair streams on and off, an egress delay, a partition, per-copy
    receive costs and a crash while a copy waits for service."""
    setup = dict(
        latency=lambda: europe_wan(17, seed=11, pair_streams=pair_streams),
        egress=(2, 0.003), recv_cost=0.001, send_cost=0.0007,
        crash_at=(5, 0.0125), block={(0, 1), (3, 4)}, per_copy=True,
    )
    each = _fanout_history(fanout, via="send_each", **setup)
    sends = _fanout_history(fanout, via="send", **setup)
    assert each == sends
    history, *_rest, backlog_at_crash, dropped = each
    assert backlog_at_crash[0] > 0
    assert dropped != 0
    assert any(src == 2 for _at, src, _dst, _msg in history)


def test_send_each_single_calendar_entry():
    sim, network, nodes = build(n=6)
    got = []
    for node in nodes:
        node.on(str, lambda src, msg, _id=node.node_id: got.append((_id, msg)))
    nodes[0].send_each([(dst, f"to {dst}", 100 + dst, None) for dst in (3, 1, 5)])
    assert sim.pending == 1
    nodes[1].send_each([])
    assert sim.pending == 1
    sim.run_until_idle()
    assert got == [(3, "to 3"), (1, "to 1"), (5, "to 5")]
    assert network.stats.messages_sent == 3
    assert network.stats.bytes_sent == 309


def test_send_each_from_a_crashed_source_sends_nothing():
    sim, network, nodes = build()
    network.crash(0)
    nodes[0].send_each([(1, "x", 100, None), (2, "y", 100, None)])
    assert sim.pending == 0
    assert network.stats.messages_sent == 0


# ---------------------------------------------------------------------------
# The service FIFO: one calendar entry per backlogged node
# ---------------------------------------------------------------------------

class _EveryServiceOnTheCalendar(Network):
    """The reference: every service step pushed on the calendar at its
    completion time, none waiting in an inbox."""

    def _arrive(self, dst, src, payload, cost, train=None):
        node = self.nodes.get(dst)
        if node is not None:
            node._serving = False
        super()._arrive(dst, src, payload, cost, train)


@pytest.mark.parametrize("via", ["send", "broadcast", "send_each"])
def test_service_fifo_history_identical_to_every_step_on_the_calendar(via):
    setup = dict(
        latency=lambda: europe_wan(17, seed=11, pair_streams=True),
        recv_cost=0.004, send_cost=0.0007, crash_at=(5, 0.0125),
        per_copy=via != "broadcast",
    )
    fifo = _fanout_history(16, via, **setup)
    reference = _fanout_history(
        16, via, network_class=_EveryServiceOnTheCalendar, **setup)
    assert fifo == reference
    assert fifo[-2][0] > 0  # node 5 was backlogged when it crashed


def _backlogged(copies=5, cost=0.1):
    """Node 0 sends ``copies`` messages to node 1, each costing ``cost``
    of its CPU: they arrive together and queue for service."""
    sim, network, nodes = build(n=2, delay=0.01)
    got = []
    nodes[1].on(int, lambda src, msg: got.append((msg, sim.now)))
    nodes[0].send_each([(1, k, 100, cost) for k in range(copies)])
    return sim, network, nodes, got


def test_a_backlogged_node_holds_one_service_step():
    sim, network, nodes, got = _backlogged()
    sim.run(until=0.02)  # every copy arrived, none served
    assert got == []
    assert nodes[1].cpu.jobs_served == 5
    assert sim.pending == 1
    assert len(nodes[1]._inbox) == 4
    sim.run_until_idle()
    assert [msg for msg, _at in got] == [0, 1, 2, 3, 4]
    done = [at for _msg, at in got]
    assert done == sorted(done) and done[-1] - done[0] > 0.19  # 4 × 0.05
    assert not nodes[1]._serving and not nodes[1]._inbox


def test_a_crash_drops_every_queued_service():
    sim, network, nodes, got = _backlogged()
    sim.schedule(0.12, network.crash, 1)  # after the first two services
    sim.run_until_idle()
    assert [msg for msg, _at in got] == [0, 1]
    assert network.stats.messages_dropped == 3
    assert network.stats.messages_delivered == 2
    assert not nodes[1]._serving and not nodes[1]._inbox


def test_a_recover_before_a_queued_step_lets_it_run():
    sim, network, nodes, got = _backlogged()
    sim.schedule(0.12, network.crash, 1)
    sim.schedule(0.17, network.recover, 1)  # before the fourth service
    sim.run_until_idle()
    assert [msg for msg, _at in got] == [0, 1, 3, 4]
    assert network.stats.messages_dropped == 1


def test_a_handler_that_sends_to_its_own_node_queues_behind_the_backlog():
    sim, network, nodes = build(n=2, delay=0.01)
    got = []

    def handle(src, msg):
        got.append(msg)
        if msg == 0:  # loopback: arrives now, served after 1..3
            nodes[1].send(1, 10, recv_cost=0.1)

    nodes[1].on(int, handle)
    nodes[0].send_each([(1, k, 100, 0.1) for k in range(4)])
    sim.run_until_idle()
    assert got == [0, 1, 2, 3, 10]


def test_calendar_holds_at_most_one_service_per_node():
    sim = Simulator()
    network = Network(sim, latency=_PairLatency())
    nodes = [Node(sim, i, network) for i in range(9)]
    for node in nodes:
        node.on(tuple, lambda src, msg: None)
    for node in nodes:
        targets = [n.node_id for n in nodes if n is not node]
        node.broadcast(targets, ("b", node.node_id), 200, recv_cost=0.002)
        node.send_each([(dst, ("e", dst), 100, 0.003) for dst in targets])
    peak = []

    def probe():
        serves = [entry[3][0].node_id for entry in sim._heap
                  if entry[2] == network._serve]
        assert len(serves) == len(set(serves))
        peak.append(sum(len(node._inbox) for node in nodes))
        if sim.pending:
            sim.schedule(0.001, probe)

    sim.schedule(0.0105, probe)
    sim.run_until_idle()
    assert max(peak) > 9  # the probe saw nodes backlogged


@pytest.mark.parametrize("step", [1, 7, 50])
def test_resuming_after_max_events_gives_the_one_run_history(step):
    def history(step):
        sim = Simulator()
        network = Network(sim, latency=_PairLatency())
        nodes = [Node(sim, i, network) for i in range(6)]
        seen = []
        for node in nodes:
            node.on(tuple, lambda src, msg, _id=node.node_id:
                    seen.append((sim.now, src, _id, msg)))
        for node in nodes:
            targets = [n.node_id for n in nodes if n is not node]
            node.broadcast(targets, ("b", node.node_id), 200, recv_cost=0.004)
            node.send_each([(dst, ("e", dst), 100, 0.003) for dst in targets])
        if step is None:
            sim.run_until_idle()
        else:
            while sim.pending:
                assert sim.run(max_events=step) <= step
        return seen, sim.events_executed

    assert history(step) == history(None)


def test_a_negative_receive_cost_is_refused_at_send_time():
    sim, network, nodes = build()
    with pytest.raises(ValueError):
        nodes[0].send(1, "x", recv_cost=-1e-6)
    with pytest.raises(ValueError):
        nodes[0].broadcast([1, 2], "x", recv_cost=-1e-6)
    with pytest.raises(ValueError):
        nodes[0].send_each([(1, "x", 100, None), (2, "y", 100, -1e-6)])
    assert sim.pending == 0

"""Unit tests for Bracha's BRB (Astro I broadcast layer, Listing 5)."""

import pytest

from repro.brb.bracha import BrachaBroadcast, BrbEcho, BrbPrepare, BrbReady
from repro.sim import ConstantLatency, Network, Node, Simulator, UniformLatency


def build(n=4, latency=None):
    sim = Simulator()
    network = Network(sim, latency=latency or ConstantLatency(0.005))
    nodes = [Node(sim, i, network) for i in range(n)]
    delivered = {i: [] for i in range(n)}
    layers = [
        BrachaBroadcast(
            nodes[i],
            range(n),
            (lambda i: lambda o, s, p: delivered[i].append((o, s, p)))(i),
        )
        for i in range(n)
    ]
    return sim, network, nodes, layers, delivered


def spy_sends(node):
    """Record every message ``node`` sends or fans out."""
    sent = []
    send, broadcast = node.send, node.broadcast
    node.send = lambda dst, message, **kw: (
        sent.append(message), send(dst, message, **kw)
    )
    node.broadcast = lambda targets, message, **kw: (
        sent.append(message), broadcast(targets, message, **kw)
    )
    return sent


def test_reliability_all_correct_deliver():
    sim, network, nodes, layers, delivered = build()
    layers[0].broadcast(1, "payload", 100)
    sim.run_until_idle()
    for i in range(4):
        assert delivered[i] == [(0, 1, "payload")]


def test_fifo_delivery_per_origin():
    sim, network, nodes, layers, delivered = build(latency=UniformLatency(0.001, 0.03, seed=2))
    for seq in range(1, 6):
        layers[0].broadcast(seq, f"m{seq}", 100)
    sim.run_until_idle()
    for i in range(4):
        assert [p for (_, _, p) in delivered[i]] == ["m1", "m2", "m3", "m4", "m5"]


def test_integrity_no_duplicate_delivery():
    sim, network, nodes, layers, delivered = build()
    layers[1].broadcast(1, "once", 100)
    sim.run_until_idle()
    counts = [len(delivered[i]) for i in range(4)]
    assert counts == [1, 1, 1, 1]


def test_concurrent_broadcasters_all_deliver():
    sim, network, nodes, layers, delivered = build()
    for i in range(4):
        layers[i].broadcast(1, f"from-{i}", 100)
    sim.run_until_idle()
    for i in range(4):
        assert sorted(p for (_, _, p) in delivered[i]) == [
            "from-0", "from-1", "from-2", "from-3"
        ]


def test_totality_with_silent_broadcaster_after_prepare():
    """The broadcaster crashes right after PREPARE: echo amplification
    still drives every correct replica to delivery (totality)."""
    sim, network, nodes, layers, delivered = build()
    layers[0].broadcast(1, "x", 100)
    network.crash(0)
    sim.run_until_idle()
    for i in range(1, 4):
        assert delivered[i] == [(0, 1, "x")]


def test_equivocating_broadcaster_agreement():
    """A Byzantine broadcaster sends conflicting payloads to disjoint
    halves.  Correct replicas may deliver nothing, but never deliver
    different payloads for the same identifier."""
    sim = Simulator()
    network = Network(sim, latency=ConstantLatency(0.005))
    n = 4
    nodes = [Node(sim, i, network) for i in range(n)]
    delivered = {i: [] for i in range(n)}
    layers = {
        i: BrachaBroadcast(
            nodes[i], range(n),
            (lambda i: lambda o, s, p: delivered[i].append((o, s, p)))(i),
        )
        for i in range(1, n)  # replica 0 is Byzantine: raw messages only
    }
    byz = Node(sim, 99, network)  # crafting endpoint unused; use node 0
    # Byzantine node 0 sends PREPARE "a" to {1, 2} and "a'" to {3}.
    network.send(0, 1, BrbPrepare(1, "a", 148), size=148)
    network.send(0, 2, BrbPrepare(1, "a", 148), size=148)
    network.send(0, 3, BrbPrepare(1, "conflicting", 148), size=148)
    sim.run_until_idle()
    payloads = {p for i in range(1, n) for (_, _, p) in delivered[i]}
    assert len(payloads) <= 1, f"agreement violated: {payloads}"


def test_byzantine_echo_flood_cannot_force_delivery():
    """f=1: a single Byzantine replica echoes/readies a fabricated payload;
    the 2f+1 quorum keeps correct replicas from delivering it."""
    sim, network, nodes, layers, delivered = build()
    fake = BrbReady(0, 1, "fabricated", 148)
    for _ in range(5):  # repeated READYs from the same Byzantine sender
        network.send(3, 1, fake, size=148)
    sim.run_until_idle()
    assert delivered[1] == []


def test_ready_amplification_from_f_plus_one():
    """f+1 READYs trigger a correct replica's own READY (Listing 5 l.26)."""
    sim, network, nodes, layers, delivered = build(n=4)
    sent = spy_sends(nodes[1])
    # Simulate two distinct replicas (2 = f+1) sending READY for a payload
    # that replica 1 never saw a PREPARE for.
    ready = BrbReady(0, 1, "amplified", 148)
    network.send(2, 1, ready, size=148)
    network.send(3, 1, ready, size=148)
    sim.run_until_idle()
    assert [(type(m), m.origin, m.seq, m.payload) for m in sent] == [
        (BrbReady, 0, 1, "amplified")
    ]


def test_late_prepare_after_amplified_delivery_is_still_echoed():
    """Delivered on READYs alone, replica 1 still echoes the PREPARE when
    it arrives — and only then retires the instance."""
    sim, network, nodes, layers, delivered = build(n=4)
    ready = BrbReady(0, 1, "amplified", 148)
    network.send(2, 1, ready, size=148)
    network.send(3, 1, ready, size=148)
    sim.run_until_idle()
    assert delivered[1] == [(0, 1, "amplified")]
    assert (0, 1) in layers[1]._instances
    sent = spy_sends(nodes[1])
    network.send(0, 1, BrbPrepare(1, "amplified", 148), size=148)
    sim.run_until_idle()
    assert [type(m) for m in sent] == [BrbEcho]
    assert layers[1]._instances == {}
    assert delivered[1] == [(0, 1, "amplified")]


def test_instances_retire_once_delivered():
    sim, network, nodes, layers, delivered = build(
        latency=UniformLatency(0.001, 0.03, seed=4)
    )
    for seq in range(1, 6):
        for layer in layers:
            layer.broadcast(seq, (layer.node.node_id, seq), 100)
    sim.run_until_idle()
    for layer in layers:
        assert layer.delivered_count == 20
        assert layer._instances == {}
        assert layer.delivered.front == {0: 5, 1: 5, 2: 5, 3: 5}


def test_a_delivered_identifiers_messages_are_dropped():
    """Integrity is the frontier's: re-injected PREPAREs (same payload or
    a conflicting one), ECHOes and READYs for a delivered identifier
    create no state, send nothing and deliver nothing."""
    sim, network, nodes, layers, delivered = build()
    layers[0].broadcast(1, "x", 100)
    sim.run_until_idle()
    sent = spy_sends(nodes[1])
    for payload in ("x", "conflicting"):
        network.send(0, 1, BrbPrepare(1, payload, 148), size=148)
        for src in (0, 2, 3):
            network.send(src, 1, BrbEcho(0, 1, payload, 148), size=148)
            network.send(src, 1, BrbReady(0, 1, payload, 148), size=148)
    sim.run_until_idle()
    assert sent == []
    assert delivered[1] == [(0, 1, "x")]
    assert layers[1]._instances == {}


def test_out_of_band_delivery_drains_its_fifo_successors_after_it():
    sim, network, nodes, layers, delivered = build()
    for src in (2, 3):  # seq 2 completes at replica 1, seq 1 never does
        network.send(src, 1, BrbReady(0, 2, "second", 148), size=148)
    sim.run_until_idle()
    assert delivered[1] == []
    assert layers[1].deliver_out_of_band(0, 1, "first")
    assert not layers[1].deliver_out_of_band(0, 1, "first")
    assert not layers[1].deliver_out_of_band(0, 2, "second")
    assert delivered[1] == [(0, 1, "first"), (0, 2, "second")]
    assert layers[1].delivered_count == 1  # seq 1 came out of band
    assert layers[1].delivered.front == {0: 2}


def test_out_of_order_completion_buffers_for_fifo():
    sim, network, nodes, layers, delivered = build()
    # Broadcast seq 2 before seq 1; FIFO must still deliver 1 then 2.
    layers[0].broadcast(2, "second", 100)
    sim.run(until=0.05)
    layers[0].broadcast(1, "first", 100)
    sim.run_until_idle()
    for i in range(4):
        assert [s for (_, s, _) in delivered[i]] == [1, 2]


def test_delivered_count():
    sim, network, nodes, layers, delivered = build()
    layers[0].broadcast(1, "x", 100)
    layers[1].broadcast(1, "y", 100)
    sim.run_until_idle()
    assert layers[2].delivered_count == 2


def test_endpoint_must_be_member():
    """An endpoint outside its view (a joiner) may exist, but only a
    member of the installed view can broadcast."""
    sim = Simulator()
    network = Network(sim, latency=ConstantLatency(0.01))
    layer = BrachaBroadcast(Node(sim, 9, network), [0, 1, 2], lambda o, s, p: None)
    with pytest.raises(ValueError):
        layer.broadcast(1, "x", 100)
    assert layer._own == {} and layer._instances == {}


def test_larger_system_with_f_crashes_still_delivers():
    n, f = 10, 3
    sim, network, nodes, layers, delivered = build(n=n)
    for node_id in range(n - f, n):
        network.crash(node_id)
    layers[0].broadcast(1, "resilient", 100)
    sim.run_until_idle()
    for i in range(n - f):
        assert delivered[i] == [(0, 1, "resilient")]


def test_non_member_readys_cannot_force_delivery():
    """Votes count only from members: three outsiders READYing a payload
    replica 0 never broadcast neither amplify nor deliver it."""
    sim, network, nodes, layers, delivered = build()
    outsiders = [Node(sim, i, network) for i in (10, 11, 12)]
    for outsider in outsiders:
        for dst in range(4):
            network.send(
                outsider.node_id, dst, BrbReady(0, 1, "forged", 100), size=100
            )
    sim.run_until_idle()
    assert all(delivered[i] == [] for i in range(4))
    assert all(layer._instances == {} for layer in layers)

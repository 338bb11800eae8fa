"""Unit tests for the signed BRB (Astro II broadcast layer, Listing 6)."""

import pytest

from repro.brb.signed import SbAck, SbCommit, SbPrepare, SignedBroadcast
from repro.crypto import Keychain, replica_owner, sign
from repro.crypto.hashing import digest
from repro.sim import ConstantLatency, Network, Node, Simulator


def build(n=4, latency=None, guards=None):
    sim = Simulator()
    network = Network(sim, latency=latency or ConstantLatency(0.005))
    keychain = Keychain(seed=31)
    nodes = [Node(sim, i, network) for i in range(n)]
    keys = [keychain.generate(replica_owner(i)) for i in range(n)]
    delivered = {i: [] for i in range(n)}
    layers = [
        SignedBroadcast(
            nodes[i],
            range(n),
            (lambda i: lambda o, s, p: delivered[i].append((o, s, p)))(i),
            keychain,
            keys[i],
            ack_guard=guards[i] if guards else None,
        )
        for i in range(n)
    ]
    return sim, network, keychain, nodes, keys, layers, delivered


def test_reliability_all_correct_deliver():
    sim, network, keychain, nodes, keys, layers, delivered = build()
    layers[2].broadcast(1, "payload", 100)
    sim.run_until_idle()
    for i in range(4):
        assert delivered[i] == [(2, 1, "payload")]


def test_integrity_at_most_once():
    sim, network, keychain, nodes, keys, layers, delivered = build()
    layers[0].broadcast(1, "x", 100)
    sim.run_until_idle()
    assert all(len(delivered[i]) == 1 for i in range(4))
    # Replay a valid commit certificate: delivery must not repeat.
    payload_digest = digest("x")
    content = ("brb-ack", 0, 1, payload_digest)
    proof = tuple(sign(keys[i], content) for i in (1, 2, 3))
    network.send(0, 1, SbCommit(0, 1, payload_digest, proof, 264), size=264)
    sim.run_until_idle()
    assert len(delivered[1]) == 1


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


def test_instances_retire_at_delivery():
    sim, network, keychain, nodes, keys, layers, delivered = build()
    for seq in (1, 2, 4):  # a gap: 4 sits above the frontier
        for layer in layers:
            layer.broadcast(seq, (layer.node.node_id, seq), 100)
    sim.run_until_idle()
    for layer in layers:
        assert layer.delivered_count == 12
        assert layer._instances == {}
        assert layer.delivered.front == {0: 2, 1: 2, 2: 2, 3: 2}
        assert layer.delivered.extra == {(0, 4), (1, 4), (2, 4), (3, 4)}


def test_a_delivered_identifiers_messages_are_dropped():
    """Re-injected PREPARE, ACK and COMMIT for a delivered identifier
    create no state, send nothing and deliver nothing — at a replica and
    at the broadcaster."""
    sim, network, keychain, nodes, keys, layers, delivered = build()
    layers[0].broadcast(1, "x", 100)
    sim.run_until_idle()
    payload_digest = digest("x")
    content = ("brb-ack", 0, 1, payload_digest)
    proof = tuple(sign(keys[i], content) for i in (1, 2, 3))
    sent = [spy_sends(nodes[0]), spy_sends(nodes[1])]
    network.send(0, 1, SbPrepare(1, "x", 148), size=148)
    network.send(2, 0, SbAck(0, 1, payload_digest, sign(keys[2], content)),
                 size=112)
    for dst in (0, 1):
        network.send(2, dst, SbCommit(0, 1, payload_digest, proof, 264),
                     size=264)
    sim.run_until_idle()
    assert sent == [[], []]
    assert delivered[0] == delivered[1] == [(0, 1, "x")]
    assert layers[0]._instances == layers[1]._instances == {}


def test_out_of_order_seq_delivers_without_fifo():
    sim, network, keychain, nodes, keys, layers, delivered = build()
    layers[0].broadcast(7, "gap-ok", 100)
    sim.run_until_idle()
    assert delivered[1] == [(0, 7, "gap-ok")]


def test_equivocation_at_most_one_payload_commits():
    """Conflicting PREPAREs split the ACK vote: quorum intersection means
    at most one payload gathers 2f+1 ACKs."""
    sim, network, keychain, nodes, keys, layers, delivered = build()
    # Byzantine broadcaster 0 sends different payloads to different peers.
    network.send(0, 1, SbPrepare(1, "a", 148), size=148)
    network.send(0, 2, SbPrepare(1, "a", 148), size=148)
    network.send(0, 3, SbPrepare(1, "b", 148), size=148)
    sim.run_until_idle()
    payloads = {p for i in range(1, 4) for (_, _, p) in delivered[i]}
    assert len(payloads) <= 1


def test_forged_commit_certificate_rejected():
    sim, network, keychain, nodes, keys, layers, delivered = build()
    payload_digest = digest("evil")
    bogus_signatures = tuple(
        sign(keys[3], ("wrong-content", i)) for i in range(3)
    )
    commit = SbCommit(0, 1, payload_digest, bogus_signatures, 264)
    network.send(0, 1, SbPrepare(1, "evil", 148), size=148)
    network.send(0, 1, commit, size=264)
    sim.run_until_idle()
    assert delivered[1] == []


def test_commit_needs_distinct_signers():
    """2f+1 copies of ONE valid signature must not form a certificate."""
    sim, network, keychain, nodes, keys, layers, delivered = build()
    payload = "dup-signer"
    payload_digest = digest(payload)
    content = ("brb-ack", 0, 1, payload_digest)
    one_signature = sign(keys[2], content)
    commit = SbCommit(0, 1, payload_digest, (one_signature,) * 3, 264)
    network.send(0, 1, SbPrepare(1, payload, 148), size=148)
    network.send(0, 1, commit, size=264)
    sim.run_until_idle()
    assert delivered[1] == []


def test_commit_before_prepare_is_buffered():
    """A COMMIT arriving before its PREPARE (reordering / Byzantine
    broadcaster) is held until the payload arrives, then delivered."""
    sim, network, keychain, nodes, keys, layers, delivered = build()
    payload = "late-prepare"
    payload_digest = digest(payload)
    content = ("brb-ack", 0, 1, payload_digest)
    proof = tuple(sign(keys[i], content) for i in (1, 2, 3))
    commit = SbCommit(0, 1, payload_digest, proof, 264)
    network.send(0, 1, commit, size=264)
    sim.run(until=0.1)
    assert delivered[1] == []
    network.send(0, 1, SbPrepare(1, payload, 148), size=148)
    sim.run_until_idle()
    assert delivered[1] == [(0, 1, payload)]


def test_no_totality_partial_commit_fanout():
    """The protocol deliberately lacks totality: a Byzantine broadcaster
    can deliver to a strict subset of correct replicas."""
    sim = Simulator()
    network = Network(sim, latency=ConstantLatency(0.005))
    keychain = Keychain(seed=47)
    nodes = [Node(sim, i, network) for i in range(4)]
    keys = [keychain.generate(replica_owner(i)) for i in range(4)]
    delivered = {i: [] for i in range(4)}
    # Node 0 is Byzantine: it gets NO honest protocol endpoint.
    for i in range(1, 4):
        SignedBroadcast(
            nodes[i], range(4),
            (lambda i: lambda o, s, p: delivered[i].append((o, s, p)))(i),
            keychain, keys[i],
        )
    payload = "partial"
    payload_digest = digest(payload)
    content = ("brb-ack", 0, 1, payload_digest)
    proof = tuple(sign(keys[i], content) for i in (1, 2, 3))
    commit = SbCommit(0, 1, payload_digest, proof, 264)
    # PREPARE to everyone (so the proof *could* exist), COMMIT only to 1.
    for dst in (1, 2, 3):
        network.send(0, dst, SbPrepare(1, payload, 148), size=148)
    network.send(0, 1, commit, size=264)
    sim.run_until_idle()
    assert delivered[1] == [(0, 1, payload)]
    assert delivered[2] == []
    assert delivered[3] == []


def test_ack_guard_vetoes_ack():
    vetoed = []

    def veto(origin, seq, payload):
        vetoed.append((origin, seq))
        return False

    guards = [None, veto, veto, veto]
    sim, network, keychain, nodes, keys, layers, delivered = build(guards=guards)
    layers[0].broadcast(1, "blocked", 100)
    sim.run_until_idle()
    # Guarded replicas refused to ACK; only the broadcaster's own ACK
    # exists — no quorum, no delivery anywhere.
    assert all(delivered[i] == [] for i in range(4))
    assert vetoed


def test_ack_signature_must_match_sender():
    """An ACK signed with a key other than the sender's is discarded."""
    sim, network, keychain, nodes, keys, layers, delivered = build()
    layers[0].broadcast(1, "x", 100)
    # Byzantine replica 3 injects an ACK claiming to be from replica 2's
    # channel but signed with its own key: broadcaster must ignore it.
    payload_digest = digest("x")
    content = ("brb-ack", 0, 1, payload_digest)
    forged = SbAck(0, 1, payload_digest, sign(keys[3], content))
    network.send(2, 0, forged, size=112)
    sim.run_until_idle()
    # Normal flow still succeeds (3 honest acks exist regardless).
    assert delivered[0] == [(0, 1, "x")]


def test_certificate_counts_member_signers_only():
    """A Byzantine broadcaster cannot fill its quorum with signatures of
    replicas outside the peer set, and an outsider's PREPARE is not
    ACKed."""
    sim, network, keychain, nodes, keys, layers, delivered = build()
    outsider = keychain.generate(replica_owner(10))
    Node(sim, 10, network)
    sent = spy_sends(nodes[3])
    network.send(10, 3, SbPrepare(1, "y", 148), size=148)
    sim.run_until_idle()
    assert sent == []
    payload_digest = digest("y")
    content = ("brb-ack", 0, 1, payload_digest)
    network.send(0, 3, SbPrepare(1, "y", 148), size=148)
    proof = tuple(sign(k, content) for k in (keys[0], keys[3], outsider))
    network.send(0, 3, SbCommit(0, 1, payload_digest, proof, 264), size=264)
    sim.run_until_idle()
    assert delivered[3] == []


def test_delivered_count_and_membership_validation():
    sim, network, keychain, nodes, keys, layers, delivered = build()
    layers[0].broadcast(1, "x", 100)
    sim.run_until_idle()
    assert layers[1].delivered_count == 1
    lone = Node(sim, 77, network)
    with pytest.raises(ValueError):
        SignedBroadcast(lone, [0, 1], lambda o, s, p: None, keychain, keys[0])


def test_crashed_broadcaster_before_commit_no_delivery():
    """If the broadcaster crashes after PREPARE but before COMMIT, nobody
    delivers (no totality) — the payment layer's CREDIT mechanism exists
    precisely to compensate at a higher level."""
    sim, network, keychain, nodes, keys, layers, delivered = build(
        latency=ConstantLatency(0.01)
    )
    layers[0].broadcast(1, "orphan", 100)
    # Crash before ACKs return (one-way latency 10ms; ACK returns at 20ms).
    sim.schedule(0.015, network.crash, 0)
    sim.run_until_idle()
    assert all(delivered[i] == [] for i in range(4))

"""Property-based tests of the BRB guarantees under random schedules.

These drive both protocols over randomized latency samples, broadcast
interleavings, and crash subsets, asserting the §IV properties hold in
every execution.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.brb.bracha import BrachaBroadcast, BrbEcho, BrbPrepare, BrbReady
from repro.brb.signed import SbAck, SbCommit, SbPrepare, SignedBroadcast
from repro.crypto import Keychain, replica_owner, sign
from repro.crypto.hashing import digest
from repro.sim import Network, Node, Simulator, UniformLatency

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_bracha(n, seed):
    sim = Simulator()
    network = Network(sim, latency=UniformLatency(0.001, 0.02, seed=seed))
    nodes = [Node(sim, i, network) for i in range(n)]
    delivered = {i: [] for i in range(n)}
    layers = [
        BrachaBroadcast(
            nodes[i], range(n),
            (lambda i: lambda o, s, p: delivered[i].append((o, s, p)))(i),
        )
        for i in range(n)
    ]
    return sim, network, layers, delivered


def build_signed(n, seed):
    sim = Simulator()
    network = Network(sim, latency=UniformLatency(0.001, 0.02, seed=seed))
    keychain = Keychain(seed=seed + 1)
    nodes = [Node(sim, i, network) for i in range(n)]
    keys = [keychain.generate(replica_owner(i)) for i in range(n)]
    delivered = {i: [] for i in range(n)}
    layers = [
        SignedBroadcast(
            nodes[i], range(n),
            (lambda i: lambda o, s, p: delivered[i].append((o, s, p)))(i),
            keychain, keys[i],
        )
        for i in range(n)
    ]
    return sim, network, layers, delivered


broadcast_plan = st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 5)),  # (origin, count)
    min_size=1,
    max_size=6,
)


@settings(**SETTINGS)
@given(plan=broadcast_plan, seed=st.integers(0, 2**16))
def test_bracha_agreement_integrity_fifo(plan, seed):
    sim, network, layers, delivered = build_bracha(4, seed)
    sequences = {i: 0 for i in range(4)}
    for origin, count in plan:
        for _ in range(count):
            sequences[origin] += 1
            layers[origin].broadcast(
                sequences[origin], f"m-{origin}-{sequences[origin]}", 100
            )
    sim.run_until_idle()
    reference = delivered[0]
    for i in range(4):
        # Reliability: everything broadcast is delivered...
        assert len(delivered[i]) == sum(sequences.values())
        # Integrity: ...exactly once.
        assert len(set(delivered[i])) == len(delivered[i])
        # Agreement: same payload per identifier everywhere.
        assert dict(((o, s), p) for o, s, p in delivered[i]) == dict(
            ((o, s), p) for o, s, p in reference
        )
        # FIFO per origin.
        for origin in range(4):
            seqs = [s for (o, s, _) in delivered[i] if o == origin]
            assert seqs == sorted(seqs)


@settings(**SETTINGS)
@given(plan=broadcast_plan, seed=st.integers(0, 2**16))
def test_signed_agreement_integrity(plan, seed):
    sim, network, layers, delivered = build_signed(4, seed)
    sequences = {i: 0 for i in range(4)}
    for origin, count in plan:
        for _ in range(count):
            sequences[origin] += 1
            layers[origin].broadcast(
                sequences[origin], f"m-{origin}-{sequences[origin]}", 100
            )
    sim.run_until_idle()
    for i in range(4):
        assert len(delivered[i]) == sum(sequences.values())
        assert len(set(delivered[i])) == len(delivered[i])
        assert dict(((o, s), p) for o, s, p in delivered[i]) == dict(
            ((o, s), p) for o, s, p in delivered[0]
        )


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    crash_subset=st.sets(st.integers(0, 6), max_size=2),
    crash_at=st.floats(min_value=0.0, max_value=0.05),
)
def test_bracha_totality_with_crashes(seed, crash_subset, crash_at):
    """n=7, f=2: any ≤f crash subset (possibly including the broadcaster,
    possibly mid-protocol): either nobody correct delivers, or every
    correct replica delivers the same payload (totality + agreement)."""
    n = 7
    sim, network, layers, delivered = build_bracha(n, seed)
    layers[0].broadcast(1, "payload", 100)
    for victim in crash_subset:
        sim.schedule(crash_at, network.crash, victim)
    sim.run_until_idle()
    correct = [i for i in range(n) if i not in crash_subset]
    outcomes = {tuple(delivered[i]) for i in correct}
    assert outcomes in (
        {()},
        {((0, 1, "payload"),)},
    ), f"mixed outcomes violate totality: {outcomes}"


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    crash_subset=st.sets(st.integers(1, 6), max_size=2),
)
def test_signed_reliability_with_non_broadcaster_crashes(seed, crash_subset):
    """n=7, f=2: with a CORRECT broadcaster, ≤f crashes elsewhere cannot
    prevent delivery at the remaining correct replicas."""
    n = 7
    sim, network, layers, delivered = build_signed(n, seed)
    for victim in crash_subset:
        network.crash(victim)
    layers[0].broadcast(1, "payload", 100)
    sim.run_until_idle()
    for i in range(n):
        if i in crash_subset:
            continue
        assert delivered[i] == [(0, 1, "payload")]


#: Non-member senders: never in any layer's peer set.
OUTSIDERS = (100, 101, 102)

injection_plan = st.lists(
    st.tuples(
        st.integers(0, 2),  # kind: PREPARE, ECHO/ACK, READY/COMMIT
        st.sampled_from(OUTSIDERS),  # sender
        st.booleans(),  # identifier: member 0's, or the sender's own
        st.integers(0, 6),  # target member (mod N)
    ),
    min_size=1,
    max_size=30,
)


def _bracha_injection(kind, sender, origin):
    if kind == 0:
        return BrbPrepare(1, "forged", 148)
    return (BrbEcho, BrbReady)[kind - 1](origin, 1, "forged", 148)


def _signed_injection(kind, sender, origin, keys):
    if kind == 0:
        return SbPrepare(1, "forged", 148)
    forged = digest("forged")
    content = ("brb-ack", origin, 1, forged)
    if kind == 1:
        return SbAck(origin, 1, forged, sign(keys[sender], content))
    proof = tuple(sign(keys[o], content) for o in OUTSIDERS)
    return SbCommit(origin, 1, forged, proof, 264)


@settings(**SETTINGS)
@given(
    n=st.integers(4, 7),
    plan=injection_plan,
    seed=st.integers(0, 2**16),
    signed=st.booleans(),
)
def test_non_members_cannot_make_members_deliver(n, plan, seed, signed):
    """Outsiders inject PREPAREs, votes (ECHO/READY, or signed ACKs) and
    certificates (COMMITs signed by all of them) for a forged payload,
    under member 0's identifier or their own.  Members count only
    members, so each delivers exactly what member 0 broadcast."""
    build = build_signed if signed else build_bracha
    sim, network, layers, delivered = build(n, seed)
    keys = {}
    for outsider in OUTSIDERS:
        Node(sim, outsider, network)
        if signed:
            keys[outsider] = layers[0].keychain.generate(replica_owner(outsider))
    layers[0].broadcast(1, "legit", 100)
    for kind, sender, own, target in plan:
        origin = sender if own else 0
        if signed:
            message = _signed_injection(kind, sender, origin, keys)
        else:
            message = _bracha_injection(kind, sender, origin)
        network.send(sender, target % n, message, size=148)
    sim.run_until_idle()
    for i in range(n):
        assert delivered[i] == [(0, 1, "legit")]

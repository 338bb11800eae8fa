"""A receiving replica settles a batch from its columns.

A batch decoded from a frame holds its payments as columns, and the
replica that delivers it ACKs, settles and signs CREDITs from them: no
``Payment`` is built unless one must wait, is rejected or carries extras.
A simulated batch holds the ``Payment`` objects too.  Both forms must
settle alike, so the same batch stream reaches two identical systems'
replica 0, once as decoded frames and once in memory.
"""

from __future__ import annotations

import random

import pytest

from hypothesis import given, settings, strategies as st

from repro.adversary.monitor import replica_state_view
from repro.brb.batching import Batch
from repro.core.dependencies import CreditMessage, DependencyCertificate
from repro.core.payment import Payment
from repro.core.persistence import state_fingerprint
from repro.core.system import Astro1System, Astro2System
from repro.transport.framing import decode_exactly_one, encode_frame
from repro.workloads.uniform import uniform_genesis

CLIENTS = [f"c{i}" for i in range(8)]


def _system(name):
    """Astro I or II, N = 4; systems built alike hold alike keys."""
    system_class = Astro1System if name == "astro1" else Astro2System
    return system_class(
        num_replicas=4, genesis=dict.fromkeys(CLIENTS, 12), seed=3
    )


#: Signs the certificates of a stream: its replicas' keys are those of
#: every Astro II system :func:`_system` builds.
SIGNERS = _system("astro2").replicas[:2]


def _certificate(spender, serial, amount):
    """A valid certificate crediting ``spender``: f+1 = 2 replicas of
    shard 0 signed a one-payment sub-batch paying it."""
    payer = CLIENTS[(CLIENTS.index(spender) + 1) % len(CLIENTS)]
    credited = Payment(payer, 1000 + serial, spender, amount)
    signatures = tuple(
        CreditMessage.create(replica.key, 0, (credited,)).signature
        for replica in SIGNERS
    )
    return DependencyCertificate(credited, 0, (credited,), signatures)


#: One payment: spender (among the origin's clients unless foreign), seq
#: (gaps, reordering and duplicate identifiers), beneficiary, amount
#: (genesis balances are 12: some are underfunded), and which of two
#: certificates per spender it carries, if any (a reused one is a replay).
PAYMENTS = st.tuples(
    st.integers(0, 7), st.integers(1, 4), st.integers(0, 7),
    st.integers(0, 15), st.booleans(), st.integers(0, 2),
)
STREAMS = st.lists(
    st.tuples(st.integers(0, 3), st.lists(PAYMENTS, min_size=1, max_size=8)),
    min_size=1, max_size=10,
)


def _stream(system, draws):
    """``(origin, payments)`` per batch, from the drawn fields."""
    rep_of = system.directory.rep_of
    stream = []
    for origin, fields in draws:
        served = [c for c in CLIENTS if rep_of(c) == origin]
        payments = []
        for spender, seq, beneficiary, amount, foreign, cert in fields:
            spender = CLIENTS[spender] if foreign else served[spender % len(served)]
            deps = (_certificate(spender, cert, 5),) if cert else ()
            payments.append(
                Payment(spender, seq, CLIENTS[beneficiary], amount, deps=deps)
            )
        stream.append((origin, payments))
    return stream


def _observed(replica):
    """Record what the replica confirms and the CREDITs it signs."""
    confirms, credits = [], []
    replica.confirm_hooks.append(lambda payment, _now: confirms.append(payment))
    sign = getattr(replica, "_sign_subbatch", None)
    if sign is None:
        return confirms, credits  # Astro I signs no CREDIT

    def recorded(flat, digests):
        message = sign(flat, digests)
        credits.append((message.subbatch_digest, message.flat))
        return message

    replica._sign_subbatch = recorded
    return confirms, credits


def _feed(replica, origin, seq, batch):
    acked = None
    if hasattr(replica, "_ack_guard"):
        acked = replica._ack_guard(origin, seq, batch)
    replica._on_brb_deliver(origin, seq, batch)
    return acked


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["astro1", "astro2"]), draws=STREAMS)
def test_decoded_and_in_memory_batches_settle_alike(name, draws):
    wire, memory = _system(name), _system(name)
    stream = _stream(memory, draws)
    decoded, held = wire.replicas[0], memory.replicas[0]
    observed = [_observed(decoded), _observed(held)]
    seqs = dict.fromkeys(range(4), 0)
    for origin, payments in stream:
        seqs[origin] += 1
        frame = encode_frame(Batch(payments))
        from_wire = decode_exactly_one(frame)
        assert from_wire.held is None
        in_memory = Batch(payments)
        assert from_wire.cached_digest == in_memory.cached_digest
        assert (
            _feed(decoded, origin, seqs[origin], from_wire)
            == _feed(held, origin, seqs[origin], in_memory)
        )
    assert state_fingerprint(decoded.state) == state_fingerprint(held.state)
    assert replica_state_view(decoded) == replica_state_view(held)
    assert decoded.rejected == held.rejected
    assert decoded._awaiting_seq == held._awaiting_seq
    (confirms_w, credits_w), (confirms_m, credits_m) = observed
    assert confirms_w == confirms_m
    assert [p.identifier for p in confirms_w] == [p.identifier for p in confirms_m]
    assert credits_w == credits_m
    if name == "astro2":
        assert decoded._seen_payments == held._seen_payments


def test_a_receiving_replica_builds_no_payment(monkeypatch):
    """Replica 0 ACKs, delivers and settles a uniform 254-payment batch
    that replica 1 broadcast, decoded from its frame, and signs the
    CREDITs: not one ``Payment`` is constructed on the way."""
    genesis = uniform_genesis(1024)
    system = Astro2System(num_replicas=4, genesis=genesis)
    served = [c for c in genesis if system.directory.rep_of(c) == 1]
    rng, seqs, payments = random.Random(7), {}, []
    for _ in range(254):
        spender = rng.choice(served)
        seqs[spender] = seqs.get(spender, 0) + 1
        payments.append(
            Payment(spender, seqs[spender], rng.choice(list(genesis)), 1)
        )
    frame = encode_frame(Batch(payments))
    replica = system.replicas[0]
    built = []
    init = Payment.__init__

    def counted(self, *args, **kwargs):
        built.append(args[:2])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Payment, "__init__", counted)
    batch = decode_exactly_one(frame)
    batch.cached_digest  # what the broadcast layer ACKs and delivers
    assert replica._ack_guard(1, 1, batch)
    replica._on_brb_deliver(1, 1, batch)
    assert replica.settled_count == 254 and not replica.rejected
    assert replica._collector.minted_subbatches == 0  # its own CREDIT: 1 of f+1
    assert built == []


@pytest.mark.parametrize("name", ["astro1", "astro2"])
def test_a_waiting_payment_wins_over_a_later_copy_of_its_identifier(name):
    """First delivery wins: a payment queued for its predecessor settles
    when that predecessor arrives, not the conflicting copy the same later
    batch carries."""
    system = _system(name)
    replica = system.replicas[0]
    spender = next(c for c in CLIENTS if system.directory.rep_of(c) == 1)
    replica._on_brb_deliver(1, 1, Batch([Payment(spender, 2, "c0", 1)]))
    assert replica.queued_payments == 1
    later = Batch([Payment(spender, 1, "c1", 1), Payment(spender, 2, "c2", 1)])
    replica._on_brb_deliver(1, 2, decode_exactly_one(encode_frame(later)))
    xlog = replica.state.xlog(spender)
    assert [p.beneficiary for p in xlog] == ["c1", "c0"]
    assert replica.queued_payments == 0

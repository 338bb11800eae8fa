"""A receiving replica settles a batch from its columns.

A batch holds its payments as columns, and the replica that delivers
it ACKs, settles and signs CREDITs from them: no ``Payment`` is built
unless one must wait, is rejected or is confirmed.  A batch decoded from
a frame builds its columns from the packed form, one built in memory
from its payments.  Both must settle alike, so the same batch stream
reaches two identical systems' replica 0, once as decoded frames and
once in memory.

A delivered batch settles in one pass: each spender's positions form a
run, and the variant's ``_settle`` settles whole runs.  The drain it
replaced — a worklist of clients, ``arrived`` and one ``_settle`` call
per payment — is kept below as a reference, and the pass must match it
on drawn streams, for Astro I, Astro II and the consensus ledger.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import count
from types import MethodType

import pytest

from hypothesis import example, given, settings, strategies as st

from repro.adversary.monitor import replica_state_view
from repro.bench.runner import run_open_loop
from repro.brb.batching import Batch
from repro.consensus.ledger import PaymentLedger
from repro.core.dependencies import (
    CreditMessage,
    DependencyCertificate,
    MintedSubbatch,
    subbatch_digest,
)
from repro.core.payment import Payment
from repro.core.persistence import state_fingerprint
from repro.core.system import Astro1System, Astro2System
from repro.crypto import costs
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
    flat, digests = credited.core, [credited.core_digest()]
    signatures = tuple(
        CreditMessage.from_cores(replica.key, 0, flat, digests).signature
        for replica in SIGNERS
    )
    record = MintedSubbatch(0, subbatch_digest(digests), signatures, flat)
    return DependencyCertificate(record, 0)


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
        in_memory = Batch(payments)
        assert from_wire.cores == in_memory.cores
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


def test_a_simulated_batch_is_its_columns():
    """Under uniform load no payment carries anything beyond its core: the
    batches a simulated Astro II run delivers have no extras, a payment
    has no slot for a submission time or a wire size, and the open loop
    still reads every latency from the client side."""
    system = Astro2System(num_replicas=4, genesis=uniform_genesis(64), seed=1)
    replica, delivered = system.replicas[0], []
    deliver = replica._deliver_batch
    replica._deliver_batch = lambda origin, batch: (
        delivered.append(batch) or deliver(origin, batch)
    )
    result = run_open_loop(system, rate=400, duration=0.5, warmup=0.1)
    assert delivered and all(batch.extras == {} for batch in delivered)
    assert {"submitted_at", "wire_bytes"}.isdisjoint(Payment.__slots__)
    assert result.confirmed == result.injected
    assert result.latency.count > 0


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


# -- the settle pass against the per-payment drain it replaced -------------
#
# The reference below is the drain a replica ran before it settled whole
# runs: ``arrived`` (spender -> seq -> position), a worklist of clients,
# and one ``_settle(index, core, payment, position)`` call per payment,
# which returned the beneficiary to re-examine, ``None``, or ``WAIT``.

WAIT = object()


def _reference_deliver(replica, origin, batch):
    if not replica.alive:
        return
    replica.charge(costs.SETTLE_PER_PAYMENT * batch.batch_items)
    rep_get, flat = replica._rep_map.get, batch.flat
    arrived = {}
    for position, spender, seq in zip(count(), flat[0::4], flat[1::4]):
        if rep_get(spender) != origin:
            continue
        fresh = arrived.get(spender)
        if fresh is None:
            arrived[spender] = {seq: position}
        elif seq not in fresh:
            fresh[seq] = position
    _reference_drain(replica, deque(arrived), batch, arrived)
    if origin == replica.node_id:
        replica._batch_done()


def _reference_apply(ledger, payment):
    if payment.seq <= ledger.state.seqnum(payment.spender):
        return
    queue = ledger._awaiting_seq.setdefault(payment.spender, {})
    queue[payment.seq] = payment
    _reference_drain(ledger, deque((payment.spender,)))


def _reference_drain(owner, worklist, batch=None, arrived=None):
    awaiting, state, settle = owner._awaiting_seq, owner.state, owner.reference_settle
    if batch is not None:
        cores, extras = batch.cores, batch.extras
    while worklist:
        client = worklist.popleft()
        fresh = arrived.pop(client, None) if arrived else None
        queue = awaiting.get(client)
        if not queue and not fresh:
            continue
        index = state.index(client)
        while True:
            next_seq = state.seqnum(client) + 1
            payment = queue.get(next_seq) if queue else None
            if payment is not None:
                position, core = None, payment.core
            else:
                position = fresh.pop(next_seq, None) if fresh else None
                if position is None:
                    break
                core = cores[position]
                if position in extras:
                    payment = batch.payment(position)
            beneficiary = settle(index, core, payment, position)
            if beneficiary is WAIT:
                if position is not None:
                    fresh[next_seq] = position
                break
            if position is None:
                del queue[next_seq]
            if beneficiary is not None:
                worklist.append(beneficiary)
        if fresh:
            settled = state.seqnum(client)
            for seq, position in fresh.items():
                if seq > settled and not (queue and seq in queue):
                    if queue is None:
                        queue = awaiting[client] = {}
                    queue[seq] = batch.payment(position)
        if queue is not None and not queue:
            del awaiting[client]


def _reference_settle_astro1(replica, index, core, payment, position):
    deps = () if payment is None else payment.deps
    if not replica.state.try_settle_spend(index, core, deps, True):
        return WAIT
    replica.settled_count += 1
    if replica._rep_map.get(core[0]) == replica.node_id:
        replica._confirm(payment or Payment(*core))
    return core[2]


def _reference_settle_astro2(replica, index, core, payment, position):
    spender = core[0]
    deps = () if payment is None else payment.deps
    if deps:
        used = replica._used_deps.setdefault(spender, {})
        for cert in deps:
            if cert.beneficiary != spender or cert.dep_id in used:
                continue
            if not replica._cert_valid(cert):
                continue
            used[cert.dep_id] = None
            replica.state.credit(spender, cert.amount)
    if not replica.state.try_settle_spend(index, core, deps):
        replica.rejected.append(payment or Payment(*core))
        return None
    replica.settled_count += 1
    replica._seen_payments.pop(core[:2], None)
    group = replica._subbatches.setdefault(replica._rep_map.get(core[2]), ([], []))
    group[0].extend(core)
    group[1].append((payment or Payment(*core)).core_digest())
    if replica._rep_map.get(spender) == replica.node_id:
        replica._confirm(payment or Payment(*core))
    return None


def _reference_settle_ledger(ledger, index, core, payment, position):
    if not ledger.state.try_settle_spend(index, core, payment.deps, True):
        return WAIT
    ledger.settled_count += 1
    ledger.on_settle(payment)
    return core[2]


def _with_reference(owner, settle):
    """Bind the reference drain to ``owner`` (a replica or a ledger)."""
    owner.reference_settle = MethodType(settle, owner)
    if isinstance(owner, PaymentLedger):
        owner.apply = MethodType(_reference_apply, owner)
    else:
        owner._deliver_batch = MethodType(_reference_deliver, owner)
    return owner


#: ``STREAMS`` with a switch per batch that keeps only each spender's
#: first payment, so that both sides of the pass's runs choice (every
#: spender once, or some twice) are drawn.
RUN_STREAMS = st.tuples(STREAMS, st.lists(st.booleans(), min_size=10, max_size=10))


def _run_stream(system, draws):
    streams, distinct = draws
    stream = _stream(system, streams)
    for (origin, payments), once in zip(stream, distinct):
        if once:
            firsts = {}
            for payment in payments:
                firsts.setdefault(payment.spender, payment)
            payments[:] = firsts.values()
    return stream


#: Origin 1's client c1 pays seq 2 (it waits for seq 1), then seq 1 and
#: another seq 2 in one batch: the waiting payment settles, not the copy.
LATER_COPY = ([(1, [(0, 2, 0, 1, False, 0)]),
               (1, [(0, 1, 1, 1, False, 0), (0, 2, 2, 1, False, 0)])], [False] * 10)

#: Origin 2's second client pays seq 2 (it waits), then seq 1, which
#: leaves it 2, and another seq 2 carrying a certificate in one batch: in
#: Astro II the waiting payment is rejected, and the copy then settles.
REJECTED_COPY = ([(2, [(1, 2, 0, 3, False, 0)]),
                  (2, [(1, 1, 0, 15, False, 1), (1, 2, 0, 3, False, 2)])], [False] * 10)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(["astro1", "astro2"]), wire=st.booleans(), draws=RUN_STREAMS)
@example(name="astro1", wire=True, draws=LATER_COPY)
@example(name="astro2", wire=False, draws=LATER_COPY)
@example(name="astro2", wire=True, draws=REJECTED_COPY)
def test_the_settle_pass_matches_the_per_payment_drain(name, wire, draws):
    """Replica 0 of two identical systems delivers one drawn stream —
    decoded frames or in-memory batches — through the settle pass and
    through the reference drain: the same state, counts, waits,
    rejections, confirms in order and, in Astro II, the same CREDIT
    sub-batches per delivery."""
    pass_system, reference_system = _system(name), _system(name)
    stream = _run_stream(pass_system, draws)
    settle = _reference_settle_astro1 if name == "astro1" else _reference_settle_astro2
    replicas = [pass_system.replicas[0], _with_reference(reference_system.replicas[0], settle)]
    observed = [_observed(replica) for replica in replicas]
    seqs = dict.fromkeys(range(4), 0)
    for origin, payments in stream:
        seqs[origin] += 1
        for replica, (_confirms, credits) in zip(replicas, observed):
            batch = Batch(payments)
            if wire:
                batch = decode_exactly_one(encode_frame(batch))
            credits.append(("delivery", origin, seqs[origin]))
            _feed(replica, origin, seqs[origin], batch)
    settled, reference = replicas
    assert state_fingerprint(settled.state) == state_fingerprint(reference.state)
    assert replica_state_view(settled) == replica_state_view(reference)
    assert settled.settled_count == reference.settled_count
    assert settled.rejected == reference.rejected
    assert settled._awaiting_seq == reference._awaiting_seq
    (confirms, credits), (reference_confirms, reference_credits) = observed
    assert [(p.identifier, p.deps) for p in confirms] == [
        (p.identifier, p.deps) for p in reference_confirms
    ]
    assert credits == reference_credits
    if name == "astro2":
        assert settled._seen_payments == reference._seen_payments


@settings(max_examples=100, deadline=None)
@given(draws=RUN_STREAMS)
def test_the_ledger_applies_as_the_per_payment_drain(draws):
    """The consensus ledger applies the payments of one drawn stream, one
    at a time, through the settle pass and through the reference drain."""
    stream = _run_stream(_system("astro1"), draws)
    ledgers = []
    for reference in (False, True):
        settles = []
        ledger = PaymentLedger(dict.fromkeys(CLIENTS, 12), on_settle=settles.append)
        if reference:
            _with_reference(ledger, _reference_settle_ledger)
        for _origin, payments in stream:
            for payment in payments:
                ledger.apply(payment)
        ledgers.append((ledger, settles))
    (ledger, settles), (reference, reference_settles) = ledgers
    assert state_fingerprint(ledger.state) == state_fingerprint(reference.state)
    assert ledger.settled_count == reference.settled_count
    assert ledger._awaiting_seq == reference._awaiting_seq
    assert settles == reference_settles
    assert [p.identifier for p in settles] == [p.identifier for p in reference_settles]

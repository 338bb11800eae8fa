"""Astro II's ACK guard (Listing 6) remembers only what is not settled.

A payment identifier at or below its spender's settled seqnum is
answered by the spender's xlog; the guard's own map holds the payments a
replica ACKed and has not settled — in flight, awaiting a predecessor,
or rejected — so it does not grow with the history.
"""

from __future__ import annotations

from repro.brb.batching import Batch
from repro.brb.signed import SbAck, SbPrepare
from repro.core.payment import Payment
from repro.core.system import Astro2System
from repro.crypto import costs

GENESIS = {"alice": 100, "bob": 50, "carol": 0, "dave": 25}


def build():
    return Astro2System(num_replicas=4, genesis=dict(GENESIS))


def acks(replica, origin, seq, payments):
    """The ``SbAck``s ``replica`` sends for a PREPARE of ``payments`` as
    ``origin``'s broadcast ``seq``; sends are recorded, not delivered."""
    node = replica.brb.node
    sent = []
    node.send = node.broadcast = lambda _dst, message, *_a, **_kw: (
        sent.append(message)
    )
    batch = Batch(list(payments))
    size = costs.HEADER_BYTES + batch.size_bytes
    try:
        replica.brb._handle_prepare(origin, SbPrepare(seq, batch, size))
    finally:
        del node.send, node.broadcast
    return [message for message in sent if isinstance(message, SbAck)]


def a_replica_other_than(system, origin):
    return next(r for r in system.replicas if r.node_id != origin)


def test_the_guard_holds_only_payments_that_have_not_settled():
    system = build()
    clients = list(GENESIS)
    for index in range(24):
        system.submit(clients[index % 2], clients[2 + index % 2], 1)
    guarded = 0
    while system.settled_counts() != [24] * 4:
        system.run(system.sim.now + 0.005)
        for replica in system.replicas:
            state = replica.state
            guarded += len(replica._seen_payments)
            assert all(
                seq > state.seqnum(spender)
                for spender, seq in replica._seen_payments
            )
    assert guarded  # some payments were seen in flight
    for replica in system.replicas:
        assert replica._seen_payments == {}


def test_a_settled_identifier_is_answered_by_its_xlog():
    """A conflicting payment for a settled identifier gets no ACK; the
    settled payment itself does, and a byte-identical duplicate of its
    PREPARE is re-ACKed with ``resend_acks``."""
    system = build()
    system.submit("alice", "bob", 30)
    system.settle_all()
    origin = system.directory.rep_of("alice")
    replica = a_replica_other_than(system, origin)
    assert replica._seen_payments == {}
    assert not acks(replica, origin, 100, [Payment("alice", 1, "carol", 30)])
    assert not acks(replica, origin, 101, [Payment("alice", 1, "bob", 31)])
    settled = replica.state.xlog("alice")[0]
    assert len(acks(replica, origin, 102, [settled])) == 1
    replica.brb.resend_acks = True
    assert len(acks(replica, origin, 102, [settled])) == 1
    assert replica._seen_payments == {}


def test_a_rejected_payment_stays_guarded():
    """An underfunded payment is ACKed, delivered and rejected without
    advancing the seqnum: a conflicting payload for its identifier is
    still refused."""
    system = build()
    rep = system.representative_of("carol")
    underfunded = Payment("carol", 1, "dave", 1000)
    batch = Batch([underfunded])
    rep.brb.broadcast(1, batch, batch.size_bytes)
    system.settle_all()
    replica = a_replica_other_than(system, rep.node_id)
    assert replica.rejected == [underfunded]
    assert replica._seen_payments == {("carol", 1): underfunded.core}
    conflicting = Payment("carol", 1, "alice", 1000)
    assert not acks(replica, rep.node_id, 2, [conflicting])
    assert len(acks(replica, rep.node_id, 3, [underfunded])) == 1


def test_the_guard_reads_seqnums_without_interning():
    """A spender the state has never seen reads sn 0 at ACK time; the
    guard interns it nowhere and grows no slab (delivery does that)."""
    system = build()
    rep = system.replicas[0]
    system.directory.register_client("erin", rep.node_id)
    replica = a_replica_other_than(system, rep.node_id)
    state, slots = replica.state, len(replica.state._seq)
    assert len(acks(replica, rep.node_id, 1, [Payment("erin", 1, "bob", 0)])) == 1
    assert "erin" not in state._interner._index and len(state._seq) == slots


def test_xlog_entries_read_back_as_the_settled_payments():
    """Columns in, payments out: every replica's xlog rebuilds exactly
    the payments it settled, dependency certificates included."""
    system = build()
    settled = {replica.node_id: [] for replica in system.replicas}
    for replica in system.replicas:
        def settle(runs, batch, stopped, replica=replica,
                   inner=replica._settle):
            runs, read = list(runs), []

            def tapped(items):  # what the settle loop reads of a run
                for item in items:
                    read.append(item)
                    yield item

            result = inner([(c, i, sn, tapped(items)) for c, i, sn, items in runs],
                           batch, stopped)
            sns = {client: sn for client, _, sn, _ in runs}
            for item in read:  # a position of a held batch: simulated
                payment = batch.payment(item) if item.__class__ is int else item
                now = replica.state.seqnum(payment.spender)
                if sns[payment.spender] < payment.seq <= now:
                    settled[replica.node_id].append(payment)
            return result
        replica._settle = settle
    system.submit("alice", "bob", 30)
    system.submit("dave", "bob", 5)
    system.settle_all()
    system.submit("bob", "carol", 75)  # needs alice's and dave's credits
    system.settle_all()
    for replica in system.replicas:
        mine = settled[replica.node_id]
        for spender, _, _, log in replica.state.accounts():
            assert list(log) == [p for p in mine if p.spender == spender]
        (payout,) = replica.state.xlog("bob")
        assert len(payout.deps) == 2 and payout.deps == mine[-1].deps

"""One approval queue: the drain loop Astro and the baseline share.

``ApprovalQueue._drain`` (``core/replica.py``) is the only worklist loop
in ``src/``; ``AstroReplicaBase`` and the consensus ``PaymentLedger``
inherit it and differ in the ``_settle`` hook alone.  These tests pin the
hook's contract on the bare base class and check, payment by payment,
that the two heirs with the same settle rule (Astro I, the ledger) stay
in lockstep on one adversarial stream.
"""

from __future__ import annotations

import random
from collections import deque

from repro.brb.batching import Batch
from repro.consensus.ledger import PaymentLedger
from repro.core.payment import Payment
from repro.core.persistence import state_fingerprint
from repro.core.replica import WAIT, ApprovalQueue
from repro.core.system import Astro1System


class _FundsGated(ApprovalQueue):
    """The smallest heir: Listing 3's criterion (2) over ``settle_full``."""

    def __init__(self, genesis):
        super().__init__(genesis)
        self.calls = []

    def _settle(self, payment):
        self.calls.append(payment.identifier)
        if self.state.balance(payment.spender) < payment.amount:
            return WAIT
        self.state.settle_full(payment)
        self.settled_count += 1
        return payment.beneficiary

    def deliver(self, payment):
        spender = payment.spender
        self._awaiting_seq.setdefault(spender, {})[payment.seq] = payment
        self._drain(deque((spender,)))


def test_wait_leaves_the_payment_queued_until_a_credit_settles_it():
    queue = _FundsGated({"a": 0, "b": 10})
    spend = Payment("a", 1, "b", 7)
    queue.deliver(spend)
    # WAIT: asked once, state untouched, still queued under its seq.
    assert queue.calls == [("a", 1)]
    assert queue._awaiting_seq == {"a": {1: spend}}
    assert queue.settled_count == 0 and queue.state.seqnum("a") == 0
    # The credit's settle returns "a" as the beneficiary to re-examine;
    # the same drain call then settles the waiting payment.
    queue.deliver(Payment("b", 1, "a", 8))
    assert queue.calls == [("a", 1), ("b", 1), ("a", 1)]
    assert queue._awaiting_seq == {}
    assert queue.settled_count == 2
    assert [row[:2] for row in queue.state.accounts()] == [("a", 1), ("b", 9)]


def test_a_settle_returning_none_leaves_the_queue_without_advancing():
    """Astro II's rejection: not WAIT, so the payment is dropped."""

    class _Rejecting(ApprovalQueue):
        def _settle(self, payment):
            return None

    queue = _Rejecting({"a": 5})
    queue._awaiting_seq["a"] = {1: Payment("a", 1, "b", 9)}
    queue._drain(deque(("a",)))
    assert queue._awaiting_seq == {} and queue.state.seqnum("a") == 0


def _adversarial_stream(rng, clients, count):
    """Unique identifiers, shuffled within a window (sequence gaps), with
    amounts near the 20-unit balances (funds waits, cascading unblocks)."""
    next_seq = dict.fromkeys(clients, 0)
    stream = []
    for _ in range(count):
        spender = rng.choice(clients)
        next_seq[spender] += 1
        beneficiary = rng.choice([c for c in clients if c != spender])
        amount = rng.randint(1, 30)
        stream.append(Payment(spender, next_seq[spender], beneficiary, amount))
    for start in range(0, count, 8):
        window = stream[start : start + 8]
        rng.shuffle(window)
        stream[start : start + 8] = window
    return stream


def _queued(owner):
    return {
        (client, seq)
        for client, queue in owner._awaiting_seq.items()
        for seq in queue
    }


def test_ledger_and_astro1_replica_drain_in_lockstep():
    clients = [f"c{i}" for i in range(6)]
    genesis = dict.fromkeys(clients, 20)
    ledger = PaymentLedger(dict(genesis))
    system = Astro1System(num_replicas=4, genesis=dict(genesis), seed=3)
    replica = system.replica(0)
    waited = 0
    for payment in _adversarial_stream(random.Random(17), clients, 200):
        ledger.apply(payment)
        origin = system.directory.rep_of(payment.spender)
        replica._deliver_batch(origin, Batch([payment]))
        both = (replica.state, ledger.state)
        assert len({state_fingerprint(state) for state in both}) == 1
        assert replica.settled_count == ledger.settled_count
        assert _queued(replica) == _queued(ledger)
        assert replica.queued_payments == ledger.waiting_count
        waited = max(waited, ledger.waiting_count)
    # The stream really exercised both waits and the cascade.
    assert waited >= 5
    assert 0 < ledger.settled_count < 200

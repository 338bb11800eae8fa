"""One approval queue: the settle pass Astro and the baseline share.

``ApprovalQueue`` (``core/replica.py``) owns the only worklist loop in
``src/``, ``_drain``: it settles each woken client's waiting payments as
one run through ``_settle``, puts back the payment a run stopped at and
wakes the clients a settle credited.  It also owns the deposit-and-wait
``_settle`` loop that Astro I and the consensus ``PaymentLedger`` both
run; Astro II overrides it.  These tests pin the hook's contract on the
bare base class and check, payment by payment, that the two heirs with
the same settle rule (Astro I, the ledger) stay in lockstep on one
adversarial stream.
"""

from __future__ import annotations

import random

from repro.brb.batching import Batch
from repro.consensus.ledger import PaymentLedger
from repro.core.payment import Payment
from repro.core.persistence import state_fingerprint
from repro.core.replica import ApprovalQueue
from repro.core.system import Astro1System


class _FundsGated(ApprovalQueue):
    """The smallest heir: Listing 3's criterion (2) over the settle step."""

    def __init__(self, genesis):
        super().__init__(genesis)
        self.calls = []

    def _settle(self, runs, batch, stopped):
        credited = []
        for client, index, sn, items in runs:
            for payment in items:
                self.calls.append(payment.identifier)
                if payment.seq != sn + 1 or not self.state.try_settle_spend(
                    index, payment.core, (), True
                ):
                    stopped.append((client, payment))
                    break
                sn = payment.seq
                self.settled_count += 1
                credited.append(payment.beneficiary)
        return credited

    def deliver(self, payment):
        spender = payment.spender
        self._awaiting_seq.setdefault(spender, {})[payment.seq] = payment
        self._drain((spender,))


def test_wait_leaves_the_payment_queued_until_a_credit_settles_it():
    queue = _FundsGated({"a": 0, "b": 10})
    spend = Payment("a", 1, "b", 7)
    queue.deliver(spend)
    # A stop for funds: asked once, state untouched, still queued under
    # its seq.
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
    """Astro II's rejection: consumed without a stop, so the payment is
    dropped."""

    class _Rejecting(ApprovalQueue):
        def _settle(self, runs, batch, stopped):
            for _client, _index, _sn, items in runs:
                for _payment in items:
                    pass
            return None

    queue = _Rejecting({"a": 5})
    queue._awaiting_seq["a"] = {1: Payment("a", 1, "b", 9)}
    queue._drain(("a",))
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


class _Counted(dict):
    """A client's queue that counts the entries a drain pops or puts."""

    touched = 0

    def pop(self, *args):
        self.touched += 1
        return super().pop(*args)

    def __setitem__(self, key, value):
        self.touched += 1
        super().__setitem__(key, value)


def test_a_wake_that_cannot_settle_reads_one_held_payment():
    """Astro I holds an unfunded client's payments in its queue.  Each
    credit too small to fund the next one wakes the client and touches
    that one payment (popped, put back), however many wait behind it."""
    system = Astro1System(num_replicas=4, genesis={"a": 0, "b": 1000}, seed=3)
    replica, rep_of = system.replica(0), system.directory.rep_of
    held = [Payment("a", seq, "b", 10) for seq in range(1, 501)]
    replica._deliver_batch(rep_of("a"), Batch(held))
    assert replica.queued_payments == 500
    queue = replica._awaiting_seq["a"] = _Counted(replica._awaiting_seq["a"])
    for seq in range(1, 10):
        replica._deliver_batch(rep_of("b"), Batch([Payment("b", seq, "a", 1)]))
        assert queue.touched == 2 * seq
    assert replica._awaiting_seq["a"] is queue and len(queue) == 500
    # The tenth credit funds a#1: popped and settled, a#2 popped and put
    # back.
    replica._deliver_batch(rep_of("b"), Batch([Payment("b", 10, "a", 1)]))
    assert replica.state.seqnum("a") == 1 and queue.touched == 18 + 3
    assert replica._awaiting_seq["a"] is queue and len(queue) == 499

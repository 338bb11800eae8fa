"""Unit tests for the batching layer (§VI-A)."""

import pytest
from hypothesis import given, strategies as st

from repro.brb.batching import (
    Batch,
    Batcher,
    KeyedCoalescer,
)
from repro.brb.quorums import byzantine_quorum, max_faulty, validate_system_size
from repro.core.payment import Payment
from repro.core.system import Astro2System
from repro.sim import Simulator


class TestBatch:
    def test_size_accounting_plain_payments(self):
        batch = Batch([Payment("a", 1, "b", 5), Payment("a", 2, "b", 5)])
        assert batch.batch_items == 2
        assert batch.size_bytes == 200

    def test_digest_cached_and_stable(self):
        batch = Batch([Payment("a", 1, "b", 5)])
        assert batch.cached_digest == batch.cached_digest

    def test_equal_content_equal_digest(self):
        a = Batch([Payment("a", 1, "b", 5)])
        b = Batch([Payment("a", 1, "b", 5)])
        assert a.cached_digest == b.cached_digest

    def test_different_content_different_digest(self):
        a = Batch([Payment("a", 1, "b", 5)])
        b = Batch([Payment("a", 1, "c", 5)])
        assert a.cached_digest != b.cached_digest

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            Batch([])

    def test_iteration_and_len(self):
        payments = [Payment("a", i, "b", 1) for i in range(1, 4)]
        batch = Batch(payments)
        assert list(batch) == payments
        assert len(batch) == 3


class TestBatcher:
    def test_flush_on_size(self):
        sim = Simulator()
        flushed = []
        batcher = Batcher(sim, flushed.append, max_size=3, max_delay=10.0)
        for i in range(3):
            batcher.add(i)
        assert flushed == [[0, 1, 2]]
        assert batcher.pending_count == 0

    def test_flush_on_timeout(self):
        sim = Simulator()
        flushed = []
        batcher = Batcher(sim, flushed.append, max_size=100, max_delay=0.05)
        batcher.add("x")
        sim.run_until_idle()
        assert flushed == [["x"]]

    def test_timer_measured_from_first_item(self):
        sim = Simulator()
        flush_times = []
        batcher = Batcher(
            sim, lambda items: flush_times.append(sim.now),
            max_size=100, max_delay=0.05,
        )
        sim.schedule(0.02, batcher.add, "a")
        sim.schedule(0.04, batcher.add, "b")
        sim.run_until_idle()
        assert flush_times == [pytest.approx(0.07)]

    def test_manual_flush_cancels_timer(self):
        sim = Simulator()
        flushed = []
        batcher = Batcher(sim, flushed.append, max_size=100, max_delay=0.05)
        batcher.add("x")
        batcher.flush()
        sim.run_until_idle()
        assert flushed == [["x"]]

    def test_flush_empty_is_noop(self):
        sim = Simulator()
        flushed = []
        batcher = Batcher(sim, flushed.append)
        batcher.flush()
        assert flushed == []

    def test_add_many(self):
        sim = Simulator()
        flushed = []
        batcher = Batcher(sim, flushed.append, max_size=2, max_delay=1.0)
        batcher.add_many([1, 2, 3])
        assert flushed == [[1, 2]]
        assert batcher.pending_count == 1

    def test_batches_flushed_counter(self):
        sim = Simulator()
        batcher = Batcher(sim, lambda items: None, max_size=1)
        batcher.add("a")
        batcher.add("b")
        assert batcher.batches_flushed == 2

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Batcher(sim, lambda items: None, max_size=0)
        with pytest.raises(ValueError):
            Batcher(sim, lambda items: None, max_delay=-1.0)

    @given(st.lists(st.integers(), min_size=1, max_size=50))
    def test_no_items_lost(self, items):
        sim = Simulator()
        flushed = []
        batcher = Batcher(sim, flushed.extend, max_size=7, max_delay=0.01)
        for item in items:
            batcher.add(item)
        sim.run_until_idle()
        assert flushed == items


class TestKeyedCoalescer:
    def _make(self, sim, **kwargs):
        flushed = []
        coalescer = KeyedCoalescer(
            sim, lambda key, items: flushed.append((key, list(items))), **kwargs
        )
        return coalescer, flushed

    def test_keys_have_independent_windows(self):
        sim = Simulator()
        coalescer, flushed = self._make(sim, max_size=100, max_delay=0.05)
        coalescer.add("a", 1)
        sim.schedule(0.03, coalescer.add, "b", 2)
        sim.run_until_idle()
        # a's window opened at t=0, b's at t=0.03: two flushes, a first.
        assert flushed == [("a", [1]), ("b", [2])]

    def test_flush_on_size_per_key(self):
        sim = Simulator()
        coalescer, flushed = self._make(sim, max_size=2, max_delay=10.0)
        coalescer.add("a", 1)
        coalescer.add("b", 9)
        coalescer.add("a", 2)
        assert flushed == [("a", [1, 2])]
        assert coalescer.pending_count == 1  # b's
        sim.run_until_idle()
        assert flushed == [("a", [1, 2]), ("b", [9])]

    def test_items_coalesce_across_adds_within_window(self):
        sim = Simulator()
        coalescer, flushed = self._make(sim, max_size=100, max_delay=0.05)
        coalescer.add("a", 1)
        sim.schedule(0.02, coalescer.add, "a", 2)
        sim.schedule(0.04, coalescer.add, "a", 3)
        sim.run_until_idle()
        # One flush, timed from the key's *first* pending item.
        assert flushed == [("a", [1, 2, 3])]
        assert sim.now == pytest.approx(0.05)
        assert coalescer.flushes == 1
        assert coalescer.items_coalesced == 3

    def test_max_size_one_flushes_immediately_without_timer(self):
        sim = Simulator()
        coalescer, flushed = self._make(sim, max_size=1, max_delay=5.0)
        coalescer.add("a", 1)
        assert flushed == [("a", [1])]
        assert sim.pending == 0  # no timer left behind

    def test_manual_flush_key_cancels_timer(self):
        sim = Simulator()
        coalescer, flushed = self._make(sim, max_size=100, max_delay=0.05)
        coalescer.add("a", 1)
        coalescer.flush_key("a")
        sim.run_until_idle()
        assert flushed == [("a", [1])]

    def test_flush_empty_key_is_noop(self):
        sim = Simulator()
        coalescer, flushed = self._make(sim)
        coalescer.flush_key("missing")
        assert flushed == []
        assert coalescer.flushes == 0

    def test_window_reopens_after_flush(self):
        sim = Simulator()
        coalescer, flushed = self._make(sim, max_size=100, max_delay=0.05)
        coalescer.add("a", 1)
        sim.run_until_idle()
        coalescer.add("a", 2)
        sim.run_until_idle()
        assert flushed == [("a", [1]), ("a", [2])]

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            KeyedCoalescer(sim, lambda k, items: None, max_size=0)
        with pytest.raises(ValueError):
            KeyedCoalescer(sim, lambda k, items: None, max_delay=-0.1)

    def test_weight_fn_counts_against_size_cap(self):
        """With ``weight_fn`` the size cut fires on accumulated weight,
        not item count (CREDIT windows weigh sub-batches by payments)."""
        sim = Simulator()
        coalescer, flushed = self._make(
            sim, max_size=5, max_delay=10.0, weight_fn=len
        )
        coalescer.add("a", [1, 2])
        assert flushed == []
        coalescer.add("a", [3, 4, 5])  # weight 2 + 3 >= 5
        assert flushed == [("a", [[1, 2], [3, 4, 5]])]
        assert coalescer.pending_count == 0

    def test_weight_fn_oversized_first_item_flushes_immediately(self):
        sim = Simulator()
        coalescer, flushed = self._make(
            sim, max_size=4, max_delay=10.0, weight_fn=len
        )
        coalescer.add("a", [1, 2, 3, 4, 5])
        assert flushed == [("a", [[1, 2, 3, 4, 5]])]
        assert sim.pending == 0  # no timer left behind

    def test_weight_resets_after_flush(self):
        sim = Simulator()
        coalescer, flushed = self._make(
            sim, max_size=4, max_delay=0.05, weight_fn=len
        )
        coalescer.add("a", [1, 2, 3])
        sim.run_until_idle()  # timer flush at weight 3
        coalescer.add("a", [4, 5, 6])
        sim.run_until_idle()  # fresh window: weight restarts from 0
        assert flushed == [("a", [[1, 2, 3]]), ("a", [[4, 5, 6]])]

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers()), min_size=1,
                    max_size=60))
    def test_no_items_lost_and_none_reordered_within_key(self, items):
        sim = Simulator()
        flushed = []
        coalescer = KeyedCoalescer(
            sim, lambda key, group: flushed.extend((key, x) for x in group),
            max_size=5, max_delay=0.01,
        )
        for key, value in items:
            coalescer.add(key, value)
        sim.run_until_idle()
        assert sorted(flushed) == sorted(items)
        for key in {k for k, _v in items}:
            assert [v for k, v in flushed if k == key] == [
                v for k, v in items if k == key
            ]


class TestGrouping:
    def test_credit_groups_by_beneficiary_representative(self):
        """Astro II's second batching level, on the code that runs it: the
        sub-batches one delivery signs, as ``_sign_subbatch`` receives
        them, per representative the transport's ``send_each`` sends
        them to — one train, one CREDIT per sub-batch."""
        reps = {"a": 0, "x": 0, "b": 2, "c": 3}
        system = Astro2System(
            num_replicas=4, genesis=dict.fromkeys(reps, 10),
            rep_assignment=reps,
        )
        replica = system.replicas[0]
        signed, sent_to = [], []
        sign = replica._sign_subbatch
        replica._sign_subbatch = lambda *group: signed.append(group) or sign(*group)
        trains = []
        send_each = replica.transport.send_each

        def observe(sends):
            trains.append(sends)
            sent_to.extend(dst for dst, *_rest in sends)
            send_each(sends)

        replica.transport.send_each = observe
        replica._sync_egress()
        # x's waiting payment settles in x's run, ahead of the batch's x#2
        # (rejected: underfunded, so it joins no sub-batch).
        waited = Payment("x", 1, "b", 1)
        replica._awaiting_seq["x"] = {1: waited}
        batch = Batch([
            Payment("a", 1, "b", 1), Payment("a", 2, "c", 1), Payment("x", 2, "b", 100)
        ])
        replica._on_brb_deliver(0, 1, batch)
        groups = dict(zip(sent_to, signed))
        assert len(groups) == len(signed)
        assert set(groups) == {2, 3}
        flat, digests = groups[2]
        assert flat == ["a", 1, "b", 1, "x", 1, "b", 1]
        assert digests == [batch.payment(0).core_digest(), waited.core_digest()]
        assert groups[3] == (["a", 2, "c", 1], [batch.payment(1).core_digest()])
        assert len(trains) == 1
        assert [
            (list(message.flat), list(message.core_digests))
            for _dst, message, _size, _cost in trains[0]
        ] == [(list(flat), list(digests)) for flat, digests in signed]


class TestQuorums:
    def test_max_faulty(self):
        assert max_faulty(4) == 1
        assert max_faulty(10) == 3
        assert max_faulty(100) == 33

    def test_quorum_is_2f_plus_1_at_optimal_size(self):
        for f in range(1, 34):
            n = 3 * f + 1
            assert byzantine_quorum(n, f) == 2 * f + 1

    def test_quorum_intersection_property(self):
        """Two quorums always intersect in at least one correct replica."""
        for n in range(4, 40):
            f = max_faulty(n)
            q = byzantine_quorum(n, f)
            assert 2 * q - n >= f + 1

    def test_validate_system_size(self):
        validate_system_size(4, 1)
        with pytest.raises(ValueError):
            validate_system_size(3, 1)
        with pytest.raises(ValueError):
            validate_system_size(4, -1)

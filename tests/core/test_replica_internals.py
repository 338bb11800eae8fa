"""Tests for replica-internal mechanics: flow control, ingestion rules."""

import pytest

from repro.core.config import AstroConfig
from repro.core.payment import Payment
from repro.core.system import Astro1System, Astro2System

GENESIS = {"a": 10**6, "b": 10**6, "c": 10**6, "d": 10**6}


def test_batch_backpressure_limits_inflight():
    config = AstroConfig(
        num_replicas=4, batch_size=2, batch_delay=0.001, max_inflight_batches=1
    )
    system = Astro1System(num_replicas=4, genesis=dict(GENESIS), config=config)
    representative = system.representative_of("a")
    for _ in range(20):
        system.submit("a", "b", 1)
    # With a single in-flight slot, extra batches queue locally...
    assert len(representative._batch_backlog) > 0
    system.settle_all()
    # ...and all eventually broadcast and settle.
    assert representative.settled_count == 20
    assert len(representative._batch_backlog) == 0


def test_duplicate_submission_dropped_at_ingest():
    system = Astro1System(num_replicas=4, genesis=dict(GENESIS), seed=1)
    representative = system.representative_of("a")
    representative.submit_local(Payment("a", 1, "b", 5))
    representative.submit_local(Payment("a", 1, "c", 7))  # same seq: dropped
    system.settle_all()
    log = system.replica(0).state.xlog("a")
    assert [p.beneficiary for p in log] == ["b"]


def test_out_of_order_submission_dropped_at_ingest():
    system = Astro1System(num_replicas=4, genesis=dict(GENESIS), seed=1)
    representative = system.representative_of("a")
    representative.submit_local(Payment("a", 2, "b", 5))  # gap: dropped
    system.settle_all()
    assert system.settled_counts() == [0, 0, 0, 0]


def test_crashed_replica_ignores_submissions():
    system = Astro1System(num_replicas=4, genesis=dict(GENESIS), seed=1)
    representative = system.representative_of("a")
    system.faults.crash(representative.node_id, at=0.0)
    system.sim.run(until=0.01)
    system.submit("a", "b", 5)
    system.settle_all()
    assert all(count == 0 for count in system.settled_counts())


def test_queued_payments_visible():
    system = Astro1System(
        num_replicas=4, genesis={"a": 0, "b": 100, "c": 0, "d": 0}, seed=1
    )
    system.submit("a", "b", 50)  # unfunded: delivered but queued
    system.settle_all()
    assert all(replica.queued_payments == 1 for replica in system.replicas)
    # Held is the representative's reading of the same payment: queued
    # everywhere, answered for by one replica.
    rep = system.representative_of("a")
    assert [r.held_payments for r in system.replicas] == [
        int(r is rep) for r in system.replicas
    ]
    system.submit("b", "a", 50)  # the funds arrive
    system.settle_all()
    assert all(
        r.queued_payments == r.held_payments == 0 for r in system.replicas
    )


def test_astro2_projected_balance_tracks_held_queue():
    system = Astro2System(
        num_replicas=4, genesis={"a": 10, "b": 100, "c": 0, "d": 0}, seed=1
    )
    rep = system.representative_of("a")
    system.submit("a", "b", 8)    # affordable
    system.submit("a", "b", 8)    # not affordable yet: held
    system.settle_all()
    assert rep.held_payments == 1
    assert system.settled_counts() == [1, 1, 1, 1]
    system.submit("b", "a", 50)   # credit arrives, hold releases
    system.settle_all()
    assert rep.held_payments == 0
    assert system.replica(0).state.xlog("a").last_seq == 2


def test_astro2_available_balance_view():
    system = Astro2System(
        num_replicas=4, genesis={"a": 100, "b": 0, "c": 0, "d": 0}, seed=1
    )
    system.submit("a", "b", 40)
    system.settle_all()
    rep_b = system.representative_of("b")
    assert rep_b.available_balance("b") == 40
    assert rep_b.balance_of("b") == 0  # nothing settled on b's side yet


def test_settled_count_uniform_across_replicas():
    system = Astro2System(num_replicas=7, genesis=dict(GENESIS), seed=2)
    for index in range(25):
        system.submit("a", "b", 1)
    system.settle_all()
    assert set(system.settled_counts()) == {25}


def test_confirm_hooks_only_fire_at_spender_rep():
    system = Astro1System(num_replicas=4, genesis=dict(GENESIS), seed=3)
    fired = {replica.node_id: 0 for replica in system.replicas}

    for replica in system.replicas:
        def hook(payment, at, node_id=replica.node_id):
            fired[node_id] += 1

        replica.confirm_hooks.append(hook)

    system.submit("a", "b", 1)
    system.settle_all()
    rep = system.directory.rep_of("a")
    assert fired[rep] == 1
    assert sum(fired.values()) == 1


@pytest.mark.parametrize("system_type", [Astro1System, Astro2System])
def test_broadcast_instances_retire_once_delivered(system_type):
    """With correct broadcasters every BRB instance retires: what a
    replica keeps per delivered identifier is its frontier entry."""
    system = system_type(num_replicas=4, genesis=dict(GENESIS), seed=3)
    clients = sorted(GENESIS)
    for index in range(300):
        system.submit(clients[index % 4], clients[(index + 1) % 4], 1)
    system.settle_all()
    for replica in system.replicas:
        assert replica.settled_count == 300
        assert replica.brb._instances == {}
        assert not replica.brb.delivered.extra

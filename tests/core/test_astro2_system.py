"""System tests for Astro II (Listings 6–10, §IV-A) — single shard."""


from repro.core.payment import Payment
from repro.sim.latency import LatencyModel
from repro.core.system import Astro2System

GENESIS = {"alice": 100, "bob": 50, "carol": 0, "dave": 25}


def build(n=4, genesis=None, **kwargs):
    return Astro2System(num_replicas=n, genesis=genesis or dict(GENESIS), **kwargs)


def test_basic_payment_settles_everywhere():
    system = build()
    system.submit("alice", "bob", 30)
    system.settle_all()
    assert system.settled_counts() == [1, 1, 1, 1]
    for index in range(4):
        assert system.balances_at(index)["alice"] == 70


def test_beneficiary_credited_only_via_dependencies():
    """Settling never deposits directly (Listing 9): the beneficiary's
    replicated balance rises only when a dependency materializes."""
    system = build()
    system.submit("alice", "bob", 30)
    system.settle_all()
    # Not yet spent by bob: replicated balance unchanged...
    assert system.balances_at(0)["bob"] == 50
    # ...but his representative can prove the credit.
    assert system.representative_of("bob").available_balance("bob") == 80
    # Bob spends beyond his settled balance, consuming the dependency.
    system.submit("bob", "carol", 70)
    system.settle_all()
    balances = system.balances_at(0)
    assert balances["bob"] == 10   # 50 + 30 - 70
    assert system.settled_counts() == [2, 2, 2, 2]


def test_dependency_not_consumed_twice():
    system = build()
    system.submit("alice", "bob", 30)
    system.settle_all()
    system.submit("bob", "carol", 60)
    system.settle_all()
    system.submit("bob", "carol", 20)
    system.settle_all()
    assert system.total_value() == sum(GENESIS.values())
    assert system.balances_at(0)["bob"] == 0  # 50 + 30 - 60 - 20


def test_representative_holds_underfunded_payment_until_credit():
    system = build()
    system.submit("carol", "dave", 40)  # carol has 0: held at her rep
    rep_carol = system.representative_of("carol")
    system.settle_all()
    assert rep_carol.held_payments == 1
    assert system.settled_counts() == [0, 0, 0, 0]
    system.submit("alice", "carol", 60)
    system.settle_all()
    assert rep_carol.held_payments == 0
    assert system.settled_counts() == [2, 2, 2, 2]
    # Astro II never deposits directly: dave's replicated balance is
    # unchanged, but his representative can prove the incoming 40.
    assert system.balances_at(0)["dave"] == 25
    assert system.representative_of("dave").available_balance("dave") == 65


def test_held_payments_keep_client_fifo():
    system = build()
    system.submit("carol", "dave", 40)   # held (unfunded)
    system.submit("carol", "bob", 1)     # must NOT overtake the held one
    system.settle_all()
    assert system.settled_counts() == [0, 0, 0, 0]
    system.submit("alice", "carol", 100)
    system.settle_all()
    xlog = system.replica(0).state.xlog("carol")
    assert [p.seq for p in xlog] == [1, 2]
    assert [p.beneficiary for p in xlog] == ["dave", "bob"]


def test_replicas_converge():
    system = build()
    for _ in range(4):
        system.submit("alice", "bob", 5)
        system.submit("bob", "dave", 2)
    system.settle_all()
    snapshots = {replica.state.snapshot() for replica in system.replicas}
    assert len(snapshots) == 1


def test_conservation_with_dependencies_in_flight():
    system = build()
    system.submit("alice", "bob", 30)
    system.submit("bob", "carol", 10)
    system.settle_all()
    assert system.total_value() == sum(GENESIS.values())


def test_underfunded_broadcast_rejected_deterministically():
    """A (Byzantine) representative broadcasting an underfunded payment:
    every correct replica rejects it identically (Listing 9 l.49)."""
    from repro.brb.batching import Batch

    system = build()
    rep = system.representative_of("carol")
    payment = Payment("carol", 1, "dave", 1000)  # carol cannot afford it
    batch = Batch([payment])
    rep.brb.broadcast(1, batch, batch.size_bytes)
    system.settle_all()
    assert system.settled_counts() == [0, 0, 0, 0]
    assert all(len(replica.rejected) == 1 for replica in system.replicas)


def test_equivocating_representative_cannot_double_spend():
    from repro.brb.batching import Batch

    system = build(genesis={"mallory": 100, "bob": 0, "carol": 0, "x": 0})
    rep = system.representative_of("mallory")
    a = Batch([Payment("mallory", 1, "bob", 100)])
    b = Batch([Payment("mallory", 1, "carol", 100)])
    rep.brb.broadcast(1, a, a.size_bytes)
    rep.brb.broadcast(2, b, b.size_bytes)
    system.settle_all()
    # At most one conflicting payment settles, identically everywhere.
    beneficiaries = {
        tuple(p.beneficiary for p in replica.state.xlog("mallory"))
        for replica in system.replicas
    }
    assert len(beneficiaries) == 1
    settled = beneficiaries.pop()
    assert len(settled) <= 1


def test_confirmations_at_spender_representative():
    system = build()
    seen = []
    system.add_confirm_hook(lambda payment, at: seen.append(payment.identifier))
    system.submit("alice", "bob", 5)
    system.submit("bob", "carol", 5)
    system.settle_all()
    assert sorted(seen) == [("alice", 1), ("bob", 1)]


def test_client_node_round_trip():
    system = build()
    latencies = []
    client = system.add_client_node(
        "alice", on_confirm=lambda payment, latency: latencies.append(latency)
    )
    client.pay("bob", 10)
    system.settle_all()
    assert client.confirmed_count == 1
    assert latencies[0] > 0


def test_crash_of_f_replicas_preserves_liveness():
    system = build(n=7, genesis=dict(GENESIS))
    reps = {system.directory.rep_of(c) for c in GENESIS}
    victims = [r.node_id for r in system.replicas if r.node_id not in reps][:2]
    for victim in victims:
        system.faults.crash(victim)
    system.submit("alice", "bob", 10)
    system.settle_all()
    for replica in system.replicas:
        if replica.node_id in victims:
            continue
        assert replica.settled_count == 1


def test_lazy_attachment_skips_deps_when_funded():
    """With ample settled balance, outgoing payments carry no
    certificates (wire/verification amortization)."""
    system = build()
    system.submit("alice", "bob", 1)
    system.settle_all()
    system.submit("bob", "carol", 1)  # bob's genesis 50 covers this
    system.settle_all()
    xlog = system.replica(0).state.xlog("bob")
    assert xlog.entries()[0].deps == ()


def test_deps_attached_when_needed():
    system = build()
    system.submit("alice", "bob", 30)
    system.settle_all()
    system.submit("bob", "carol", 75)  # needs the credit from alice
    system.settle_all()
    xlog = system.replica(0).state.xlog("bob")
    assert len(xlog.entries()[0].deps) == 1


# ---------------------------------------------------------------------------
# Cross-delivery CREDIT coalescing (AstroConfig.credit_coalesce_delay)
# ---------------------------------------------------------------------------

from repro.core.config import AstroConfig  # noqa: E402


def _coalescing_system(delay, batch_delay=0.01):
    config = AstroConfig(
        num_replicas=4, batch_delay=batch_delay,
        credit_coalesce_delay=delay,
    )
    return Astro2System(
        num_replicas=4, genesis=dict(GENESIS), config=config, seed=7,
        track_kinds=True,
    )


def _staggered_alice_to_bob(system, times=(0.0, 0.05, 0.10)):
    """Three single-payment batches from alice's rep, all delivering
    within one generous coalescing window."""
    for at in times:
        if at == 0.0:
            system.submit("alice", "bob", 5)
        else:
            system.sim.schedule(at, system.submit, "alice", "bob", 5)
    system.settle_all()


def test_coalescing_preserves_economics():
    flushed = _coalescing_system(0.0)
    coalesced = _coalescing_system(0.5)
    for system in (flushed, coalesced):
        _staggered_alice_to_bob(system)
    assert coalesced.settled_counts() == flushed.settled_counts()
    for index in range(4):
        assert coalesced.balances_at(index) == flushed.balances_at(index)
    assert coalesced.total_value() == sum(GENESIS.values())


def test_coalescing_merges_credit_messages_across_deliveries():
    """Three deliveries inside one window produce one CREDIT bundle per
    (settling replica -> representative) pair instead of three unicasts.
    The sub-batches inside stay per-delivery: only transport merges."""
    flushed = _coalescing_system(0.0)
    _staggered_alice_to_bob(flushed)
    coalesced = _coalescing_system(0.5)
    _staggered_alice_to_bob(coalesced)
    off = flushed.network.stats.by_kind.get("CreditMessage", 0)
    on_bundles = coalesced.network.stats.by_kind.get("CreditBundle", 0)
    on_singles = coalesced.network.stats.by_kind.get("CreditMessage", 0)
    # 3 batches x 3 non-self settling replicas, vs one coalesced bundle
    # per pair carrying all three per-delivery sub-batches.
    assert off == 9
    assert on_bundles == 3
    assert on_singles == 0


def test_coalesced_subbatch_certificates_spendable():
    """Certificates minted from bundled (multi-delivery envelope)
    sub-batches must verify and materialize exactly like unicast ones."""
    system = _coalescing_system(0.5)
    _staggered_alice_to_bob(system)
    # bob's genesis is 50; spending 60 needs the 15 of coalesced credits.
    system.submit("bob", "carol", 60)
    system.settle_all()
    balances = system.balances_at(0)
    assert balances["alice"] == 85
    assert balances["bob"] == 5  # 50 + 15 - 60
    assert system.total_value() == sum(GENESIS.values())


def test_coalescing_subbatch_digests_match_across_settlers():
    """Transport coalescing must leave sub-batch composition a pure
    function of the origin's batch stream: with it on and off, the same
    deliveries mint the same certificates (f+1 digests always match)."""
    flushed = _coalescing_system(0.0)
    _staggered_alice_to_bob(flushed)
    coalesced = _coalescing_system(0.5)
    _staggered_alice_to_bob(coalesced)
    def minted(system):
        return sorted(
            (r.node_id, r._collector.minted_subbatches) for r in system.replicas
        )
    assert minted(coalesced) == minted(flushed)
    for system in (flushed, coalesced):
        assert all(r._collector.pending_subbatches == 0 for r in system.replicas)


def test_coalescing_bitwise_reproducible():
    def run():
        system = _coalescing_system(0.05)
        _staggered_alice_to_bob(system)
        return (
            system.sim.now,
            system.sim.events_executed,
            tuple(system.settled_counts()),
            system.replica(0).state.snapshot(),
        )

    assert run() == run()


def test_coalescing_mints_certificates_under_wan_jitter():
    """Regression: sub-batch boundaries must not depend on local delivery
    times.  Under pair-varying WAN latency every settler observes
    deliveries at different instants; a coalescer that merged sub-batch
    *content* per local time window would slice the settled-payment
    stream differently at each settler, digests would never gather f+1
    matching CREDITs, and a beneficiary on a tight balance could never
    spend.  Transport-only coalescing keeps digests bit-identical, so
    certificates must mint and pending sub-batches must drain to zero.
    """
    from repro.sim.latency import europe_wan

    genesis = {"a1": 200, "a2": 200, "a3": 200, "bob": 5, "carol": 0}
    config = AstroConfig(
        num_replicas=7, batch_delay=0.01, credit_coalesce_delay=0.05,
    )
    system = Astro2System(
        num_replicas=7, genesis=genesis, config=config, seed=11,
        latency=europe_wan(7 + len(genesis) + 64, seed=11, pair_streams=True),
    )
    # Twelve staggered single-payment batches from three different
    # origins, spanning several coalescing windows each.
    for index, at in enumerate(x * 0.03 for x in range(4)):
        for spender in ("a1", "a2", "a3"):
            if at == 0.0:
                system.submit(spender, "bob", 10)
            else:
                system.sim.schedule(at, system.submit, spender, "bob", 10)
    system.settle_all()
    # bob's genesis is 5; spending 100 needs ~10 of the 12 minted credits.
    system.submit("bob", "carol", 100)
    system.settle_all()
    assert system.balances_at(0)["bob"] == 25  # 5 + 120 - 100
    # Settling never deposits directly: carol's credit is provable at her
    # representative (and spendable), pending her own next payment.
    assert system.representative_of("carol").available_balance("carol") == 100
    assert system.total_value() == sum(genesis.values())
    # Every sub-batch gathered all N CREDITs at its destination
    # representative: nothing stranded short of f+1, which is exactly
    # the digests-match property (the old time-anchored coalescer left
    # thousands of mismatched partials here and bob could never spend).
    assert all(r._collector.pending_subbatches == 0 for r in system.replicas)
    assert sum(r._collector.minted_subbatches for r in system.replicas) >= 12


def test_coalescer_size_cap_flushes_full_subbatch():
    """A bucket reaching batch_size flushes immediately, bounding both
    staleness and CreditMessage wire size."""
    config = AstroConfig(
        num_replicas=4, batch_delay=0.01, batch_size=8,
        credit_coalesce_delay=10.0,
    )
    system = Astro2System(
        num_replicas=4, genesis=dict(GENESIS), config=config, seed=7,
        track_kinds=True,
    )
    for _ in range(8):  # exactly one full sub-batch towards bob's rep
        system.submit("alice", "bob", 1)
    system.run(until=1.0)  # well inside the 10s window
    assert system.network.stats.by_kind.get("CreditMessage", 0) >= 3
    assert system.representative_of("bob").available_balance("bob") >= 50 + 8


def test_crashed_replica_does_not_flush_coalesced_credits():
    system = _coalescing_system(0.5)
    system.submit("alice", "bob", 5)
    system.run(until=0.2)  # delivered and settled, credits still windowed
    victim = system.replicas[0]
    rep_bob = system.representative_of("bob")
    assert victim.node_id != rep_bob.node_id  # scenario precondition
    assert system.network.stats.by_kind.get("CreditMessage", 0) == 0
    system.faults.crash(victim.node_id)
    system.settle_all()
    # Exactly the two live non-representative settlers unicast their
    # (single sub-batch) CREDIT; the victim's expired window sends
    # nothing, and bob's representative self-applied off the wire.
    assert system.network.stats.by_kind.get("CreditMessage", 0) == 2
    # f+1 live CREDITs suffice: the certificate minted without the victim.
    assert rep_bob.available_balance("bob") == 55
    # The collector's straggler ledger still awaits exactly the victim —
    # proof the mint used live signers only and nothing of the victim's
    # ever arrived.
    (outstanding,) = rep_bob._collector._certified.values()
    assert outstanding == {victim.node_id}


def test_a_saturated_n32_calendar_holds_one_service_step_per_node():
    """Astro II at N = 32 and 8000 pps backlogs every replica's CPU; the
    calendar still holds at most one service step per node, the rest
    waiting in the nodes' inboxes."""
    from repro.bench.runner import setup_open_loop
    from repro.bench.systems import SYSTEM_BUILDERS

    system = SYSTEM_BUILDERS["astro2"](32, seed=3)
    setup_open_loop(system, 8000, 0.1, 0.05, seed=3)
    sim, network = system.sim, system.network
    serve, queued = network._serve, []

    def probe():
        serving = [entry[3][0].node_id for entry in sim._heap
                   if entry[2] == serve]
        assert len(serving) == len(set(serving))
        assert sorted(serving) == sorted(
            n.node_id for n in network.nodes.values() if n._serving)
        queued.append(sum(len(n._inbox) for n in network.nodes.values()))
        sim.schedule(0.005, probe)

    sim.schedule(0.1, probe)
    system.run(0.25)
    assert len(queued) >= 30
    assert max(queued) > 1000  # service steps the calendar does not hold


class _IntoReplicaZero(LatencyModel):
    """1 ms everywhere but into replica 0: 40 ms from 1, 80 ms from 3."""

    SLOW = {(1, 0): 0.04, (3, 0): 0.08}

    def sample(self, src, dst):
        return self.SLOW.get((src, dst), 0.001)


def _flush_one_send_per_credit(replica):
    """The CREDIT flush as one ``send`` per sub-batch, right after its
    signature (Listing 9 l.55-57 read literally): the reference."""
    groups, replica._subbatches = replica._subbatches, {}
    for rep_node, group in groups.items():
        message = replica._sign_subbatch(*group)
        if rep_node == replica.node_id:
            replica._apply_credit(rep_node, message)
        else:
            replica._send_credits(rep_node, [message])


def _history_of_a_release_mid_flush(reference):
    """Replica 0 holds three of h's payments.  A batch from replica 1
    pays b (rep 2), c (rep 3) and then h; replica 0 delivers it last,
    with replica 2's CREDIT for h already in, so its own CREDIT mints
    h's certificate in the middle of its flush and the released payments
    fill a batch that broadcasts at once."""
    reps = {"a": 1, "b": 2, "c": 3, "h": 0}
    system = Astro2System(
        genesis={"a": 100, "b": 0, "c": 0, "h": 0},
        config=AstroConfig(num_replicas=4, batch_size=3),
        rep_assignment=reps, latency=_IntoReplicaZero(),
    )
    if reference:
        for replica in system.replicas:
            replica._flush_credits = (
                lambda replica=replica: _flush_one_send_per_credit(replica))
    network, log = system.network, []
    serve = network._serve

    def logged(node, src, payload):
        log.append((system.sim.now.hex(), src, node.node_id,
                    type(payload).__name__))
        serve(node, src, payload)

    network._serve = logged
    for _ in range(3):
        system.submit("h", "b", 1)
    assert system.replicas[0].held_payments == 3
    for beneficiary, amount in (("b", 1), ("c", 1), ("h", 5)):
        system.submit("a", beneficiary, amount)
    system.settle_all()
    assert system.replicas[0].held_payments == 0
    return log, system.settled_counts()


def test_a_credit_train_leaves_before_a_self_credit_releases_payments():
    train, settled = _history_of_a_release_mid_flush(reference=False)
    assert train == _history_of_a_release_mid_flush(reference=True)[0]
    assert settled == [6, 6, 6, 6]

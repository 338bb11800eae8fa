"""System tests for asynchronous sharding (§V)."""


from repro.core.system import Astro2System

GENESIS = {"alice": 100, "bob": 50, "carol": 0, "dave": 25,
           "erin": 60, "frank": 10}


def build(shards=2, per_shard=4, genesis=None, **kwargs):
    return Astro2System(
        num_replicas=per_shard,
        num_shards=shards,
        genesis=genesis or dict(GENESIS),
        **kwargs,
    )


def find_cross_shard_pair(system):
    clients = list(system.genesis)
    for spender in clients:
        for beneficiary in clients:
            if spender == beneficiary:
                continue
            if (
                system.directory.shard_of_client(spender)
                != system.directory.shard_of_client(beneficiary)
            ):
                return spender, beneficiary
    raise AssertionError("no cross-shard pair")


def test_shard_membership_disjoint():
    system = build()
    members0 = set(system.directory.members(0))
    members1 = set(system.directory.members(1))
    assert not (members0 & members1)
    assert len(members0) == len(members1) == 4


def test_intra_shard_payment_contained():
    system = build()
    shard0_clients = [
        c for c in system.genesis if system.directory.shard_of_client(c) == 0
    ]
    spender, beneficiary = shard0_clients[0], shard0_clients[1]
    amount = min(10, system.genesis[spender])
    system.submit(spender, beneficiary, amount)
    system.settle_all()
    for node in system.directory.members(0):
        assert system.replica_by_node(node).settled_count == 1
    for node in system.directory.members(1):
        assert system.replica_by_node(node).settled_count == 0


def test_cross_shard_payment_no_2pc():
    """The spender's shard settles unilaterally; the beneficiary's shard
    learns via CREDIT messages only (one communication step, §V)."""
    system = build()
    spender, beneficiary = find_cross_shard_pair(system)
    system.submit(spender, beneficiary, 5)
    system.settle_all()
    spender_shard = system.directory.shard_of_client(spender)
    for node in system.directory.members(spender_shard):
        assert system.replica_by_node(node).settled_count == 1
    # Beneficiary's representative holds the dependency certificate.
    rep = system.representative_of(beneficiary)
    assert rep.available_balance(beneficiary) == system.genesis[beneficiary] + 5


def test_cross_shard_value_spendable_in_other_shard():
    system = build(genesis={"alice": 100, "bob": 0, "carol": 0, "dave": 0,
                            "erin": 0, "frank": 0})
    spender = "alice"
    cross = [
        c for c in system.genesis
        if system.directory.shard_of_client(c)
        != system.directory.shard_of_client("alice")
    ]
    beneficiary = cross[0]
    final = next(c for c in system.genesis if c not in (spender, beneficiary))
    system.submit(spender, beneficiary, 80)
    system.settle_all()
    system.submit(beneficiary, final, 70)  # funded purely by the credit
    system.settle_all()
    total = system.total_value()
    assert total == 100
    rep_final = system.representative_of(final)
    assert rep_final.available_balance(final) >= 70


def test_global_conservation_across_shards():
    system = build()
    spender, beneficiary = find_cross_shard_pair(system)
    system.submit(spender, beneficiary, 7)
    reverse_pair = (beneficiary, spender)
    system.settle_all()
    system.submit(*reverse_pair, 3)
    system.settle_all()
    assert system.total_value() == sum(GENESIS.values())


def test_shards_do_not_learn_foreign_xlogs():
    system = build()
    spender, beneficiary = find_cross_shard_pair(system)
    system.submit(spender, beneficiary, 5)
    system.settle_all()
    other_shard = system.directory.shard_of_client(beneficiary)
    for node in system.directory.members(other_shard):
        replica = system.replica_by_node(node)
        # The spender's xlog lives only in the spender's shard.
        assert replica.state.xlog(spender).last_seq == 0


def test_three_shards_scale_out():
    genesis = {f"c{i}": 100 for i in range(12)}
    system = Astro2System(num_replicas=4, num_shards=3, genesis=genesis, seed=2)
    assert len(system.replicas) == 12
    for i in range(0, 12, 2):
        system.submit(f"c{i}", f"c{i + 1}", 1)
    system.settle_all()
    total_settled = sum(system.settled_counts())
    assert total_settled == 6 * 4  # each payment settled by its shard's 4


def test_per_shard_convergence():
    system = build()
    spender, beneficiary = find_cross_shard_pair(system)
    system.submit(spender, beneficiary, 5)
    system.settle_all()
    for shard in system.directory.shard_ids:
        snapshots = {
            system.replica_by_node(node).state.snapshot()
            for node in system.directory.members(shard)
        }
        assert len(snapshots) == 1


def test_explicit_shard_assignment_respected():
    assignment = {c: 0 for c in GENESIS}
    assignment["frank"] = 1
    system = build(shard_assignment=assignment)
    assert system.directory.shard_of_client("frank") == 1
    assert system.directory.shard_of_client("alice") == 0


def test_forged_cross_shard_certificate_rejected():
    """A certificate signed by replicas of the WRONG shard must not
    credit the beneficiary."""
    from repro.core.dependencies import (
        CreditMessage,
    )

    system = build(genesis={"alice": 100, "bob": 0, "carol": 0, "dave": 0,
                            "erin": 0, "frank": 0})
    spender, beneficiary = find_cross_shard_pair(system)
    ben_shard = system.directory.shard_of_client(beneficiary)
    ben_members = system.directory.members(ben_shard)
    # Byzantine replicas of the *beneficiary's own* shard craft CREDITs
    # claiming a payment from the spender's shard.
    fake_payment = system.make_payment(spender, beneficiary, 10**6)
    spender_shard = system.directory.shard_of_client(spender)
    rep = system.representative_of(beneficiary)
    forgers = [system.replica_by_node(node) for node in ben_members[:2]]
    for forger in forgers:
        message = CreditMessage.from_cores(
            forger.key, spender_shard, fake_payment.core,
            [fake_payment.core_digest()],
        )
        rep._apply_credit(forger.node_id, message)
    system.settle_all()
    assert rep.available_balance(beneficiary) == 0


def test_cert_verify_cost_bound_uses_certificate_shard():
    """The delivery-time verify-cost clamp must price a certificate by
    *its* shard's f+1, not the local shard's — with heterogeneous shard
    sizes the two differ, and charging the local bound would mis-price
    cross-shard certificates."""
    from repro.brb.quorums import max_faulty

    system = build(shards=2, per_shard=4)  # two shards of f=1
    replica = system.replicas[0]
    assert replica._cert_sig_bound(0) == 2  # own shard: f+1
    assert replica._cert_sig_bound(1) == 2
    # A shard the directory does not know costs nothing to reject:
    # verify_certificate bails after one O(1) lookup.
    assert replica._cert_sig_bound(2) == 0
    # ...and the unknown verdict is not cached: a reconfiguration that
    # registers a bigger shard (f=2) later prices its certificates at
    # *its* bound of 3 signatures, not the local 2 (and not a stale 0).
    big = tuple(range(100, 107))
    system.directory.register_shard(2, big)
    assert replica._cert_sig_bound(2) == max_faulty(len(big)) + 1 == 3

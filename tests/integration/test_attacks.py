"""Adversarial scenario tests: the attacks the paper defends against."""


from repro.brb.batching import Batch
from repro.brb.signed import SbAck, SbCommit, SbPrepare
from repro.core.dependencies import MintedSubbatch, certificates_of
from repro.core.payment import Payment
from repro.core.system import Astro1System, Astro2System
from repro.crypto.hashing import digest
from repro.crypto.signatures import sign


GENESIS = {"alice": 100, "bob": 0, "carol": 0, "dave": 0}


class TestDoubleSpend:
    def test_byzantine_client_reusing_seq_astro1(self):
        """A client submits two different payments with the same sequence
        number through a correct representative: the representative's
        FIFO batching + BRB ordering ensure only one settles."""
        system = Astro1System(num_replicas=4, genesis=dict(GENESIS), seed=1)
        rep = system.representative_of("alice")
        rep.submit_local(Payment("alice", 1, "bob", 100))
        rep.submit_local(Payment("alice", 1, "carol", 100))
        system.settle_all()
        logs = {
            tuple(p.beneficiary for p in replica.state.xlog("alice"))
            for replica in system.replicas
        }
        assert logs == {("bob",)}
        assert system.balances_at(0)["carol"] == 0

    def test_byzantine_rep_equivocating_batches_astro1(self):
        system = Astro1System(num_replicas=4, genesis=dict(GENESIS), seed=2)
        rep = system.representative_of("alice")
        a = Batch([Payment("alice", 1, "bob", 100)])
        b = Batch([Payment("alice", 1, "carol", 100)])
        rep.brb.broadcast(1, a, a.size_bytes)
        rep.brb.broadcast(2, b, b.size_bytes)
        system.settle_all()
        # FIFO delivery: every replica settles the first, sticks the second.
        for replica in system.replicas:
            assert [p.beneficiary for p in replica.state.xlog("alice")] == ["bob"]

    def test_byzantine_rep_equivocating_batches_astro2(self):
        system = Astro2System(num_replicas=4, genesis=dict(GENESIS), seed=3)
        rep = system.representative_of("alice")
        a = Batch([Payment("alice", 1, "bob", 100)])
        b = Batch([Payment("alice", 1, "carol", 100)])
        rep.brb.broadcast(1, a, a.size_bytes)
        rep.brb.broadcast(2, b, b.size_bytes)
        system.settle_all()
        settled = {
            tuple(p.beneficiary for p in replica.state.xlog("alice"))
            for replica in system.replicas
        }
        assert len(settled) == 1          # agreement
        assert len(settled.pop()) <= 1    # at most one spend


class TestForeignClientInjection:
    def test_byzantine_rep_cannot_broadcast_for_foreign_clients(self):
        """A Byzantine replica broadcasting payments of a client it does
        not represent is ignored by every correct replica (§II: only the
        representative may broadcast for a client's xlog)."""
        system = Astro2System(num_replicas=4, genesis=dict(GENESIS), seed=4)
        alice_rep = system.directory.rep_of("alice")
        attacker = next(
            replica for replica in system.replicas
            if replica.node_id != alice_rep
        )
        batch = Batch([Payment("alice", 1, "bob", 100)])
        attacker.brb.broadcast(1, batch, batch.size_bytes)
        system.settle_all()
        assert system.settled_counts() == [0, 0, 0, 0]

    def test_a_client_cannot_attach_dependencies(self):
        """Certificates are the representative's to attach (Listing 7).
        A submission carrying ``deps`` — here a string, which every
        Astro II replica's delivery handler raised on, and which Astro I
        replicas logged — settles without them."""
        for system_class in (Astro1System, Astro2System):
            system = system_class(
                num_replicas=4, genesis=dict(GENESIS), seed=4
            )
            rep = system.representative_of("alice")
            rep.submit_local(Payment("alice", 1, "bob", 5, deps=("junk",)))
            system.settle_all()
            assert system.settled_counts() == [1, 1, 1, 1]
            for replica in system.replicas:
                assert replica.state.xlog("alice")[0].deps == ()


class TestPartialPaymentsAttack:
    """§IV: the attack that motivates CREDIT dependencies.

    Alice's Byzantine representative sends the COMMIT for her payment to
    only part of the system.  Without totality, Bob's credit would be
    stranded; the dependency certificate (f+1 CREDITs) lets Bob's
    representative prove the payment and spend across the whole shard.
    """

    def test_credit_certificates_defeat_partial_commit(self):
        system = Astro2System(num_replicas=4, genesis=dict(GENESIS), seed=5)
        alice_rep = system.representative_of("alice")
        bob_rep = system.representative_of("bob")
        payment = Payment("alice", 1, "bob", 100)
        batch = Batch([payment])

        # Mount the attack manually: PREPARE to all (gathering acks),
        # then COMMIT withheld from one correct replica.
        others = [r for r in system.replicas if r is not alice_rep]
        excluded = next(r for r in others if r is not bob_rep)
        keys = {r.node_id: r.key for r in system.replicas}
        content = ("brb-ack", alice_rep.node_id, 1, batch.cached_digest)
        proof = tuple(
            sign(keys[r.node_id], content)
            for r in system.replicas if r is not excluded
        )
        prepare = SbPrepare(1, batch, 48 + batch.size_bytes)
        for replica in others:
            system.network.send(
                alice_rep.node_id, replica.node_id, prepare, size=prepare.size
            )
        # Silence the Byzantine representative so its honest protocol
        # endpoint cannot complete the broadcast on its own; briefly
        # revive it only to emit the partial COMMIT fan-out.
        system.network.crash(alice_rep.node_id)
        system.settle_all()
        commit = SbCommit(alice_rep.node_id, 1, batch.cached_digest, proof, 264)
        system.network.recover(alice_rep.node_id)
        for replica in others:
            if replica is excluded:
                continue
            system.network.send(
                alice_rep.node_id, replica.node_id, commit, size=264
            )
        system.network.crash(alice_rep.node_id)
        system.settle_all()

        # The payment settled at >= f+1 correct replicas but not all.
        settled_at = [r for r in system.replicas if r.settled_count == 1]
        assert excluded.settled_count == 0
        assert len(settled_at) >= 2  # f+1 with f=1

        # Bob's representative accumulated a dependency certificate from
        # the f+1 settlers — Bob can spend the money system-wide, even at
        # the replica that never delivered Alice's payment.
        assert bob_rep.available_balance("bob") == 100
        system.submit("bob", "carol", 100)
        system.settle_all()
        for replica in system.replicas:
            if replica is alice_rep:
                continue  # the Byzantine representative is dead
            assert replica.state.xlog("bob").last_seq == 1, (
                f"replica {replica.node_id} failed to settle Bob's spend"
            )

    def test_replayed_certificate_credits_once(self):
        """Replay protection (usedDeps, Listing 9): re-attaching the same
        certificate to a later payment must not double-deposit."""
        system = Astro2System(num_replicas=4, genesis=dict(GENESIS), seed=6)
        system.submit("alice", "bob", 60)
        system.settle_all()
        system.submit("bob", "carol", 50)   # consumes the certificate
        system.settle_all()
        bob_rep = system.representative_of("bob")
        # Byzantine rep replays the used certificate on a new payment.
        used_cert = system.replica(0).state.xlog("bob")[0].deps[0]
        replayed = Payment("bob", 2, "dave", 10, deps=(used_cert,))
        batch = Batch([replayed])
        bob_rep.brb.broadcast(
            bob_rep._broadcast_seq + 1, batch, batch.size_bytes
        )
        bob_rep._broadcast_seq += 1
        system.settle_all()
        # The replayed certificate adds nothing: bob had 10 left, spends 10.
        assert system.total_value() == 100
        assert system.balances_at(0)["bob"] == 0


    def test_a_ghost_under_a_verified_digest_credits_nothing(self):
        """A Byzantine representative reuses the signatures and digest of
        a certificate every replica has verified, over columns of its own:
        a ghost payment of 1,000,000 to dave.  The digest binds the
        columns it was verified for, so the ghost credits nothing and
        dave's payout is rejected everywhere."""
        system = Astro2System(num_replicas=4, genesis=dict(GENESIS), seed=6)
        system.submit("alice", "bob", 60)
        system.settle_all()
        system.submit("bob", "carol", 50)   # every replica verifies bob's cert
        system.settle_all()
        legit = system.replica(0).state.xlog("bob")[0].deps[0]
        ghost = MintedSubbatch(
            legit.shard_id, legit.subbatch_digest, legit.signatures,
            ("ghost", 1, "dave", 1_000_000),
        )
        payout = Payment("dave", 1, "carol", 1_000_000,
                         deps=certificates_of([ghost, 0]))
        dave_rep = system.representative_of("dave")
        batch = Batch([payout])
        dave_rep.brb.broadcast(
            dave_rep._broadcast_seq + 1, batch, batch.size_bytes
        )
        dave_rep._broadcast_seq += 1
        system.settle_all()
        assert system.total_value() == 100
        for replica in system.replicas:
            assert replica.state.seqnum("dave") == 0


class TestByzantineFloods:
    def test_garbage_messages_do_not_crash_replicas(self):
        system = Astro2System(num_replicas=4, genesis=dict(GENESIS), seed=7)

        class Garbage:
            pass

        for replica in system.replicas:
            system.network.send(0, replica.node_id, Garbage(), size=64)
        system.submit("alice", "bob", 5)
        system.settle_all()
        assert system.settled_counts() == [1, 1, 1, 1]

    def test_bogus_commit_flood_rejected(self):
        system = Astro2System(num_replicas=4, genesis=dict(GENESIS), seed=8)
        attacker = system.replicas[3]
        for seq in range(1, 6):
            bogus = SbCommit(0, seq, digest(("junk", seq)), (), 100)
            for replica in system.replicas[:3]:
                system.network.send(
                    attacker.node_id, replica.node_id, bogus, size=100
                )
        system.submit("alice", "bob", 5)
        system.settle_all()
        assert all(count == 1 for count in system.settled_counts())


class TestNonMemberAcks:
    def test_acks_from_another_shard_cannot_certify_an_equivocation(self):
        """A Byzantine representative equivocates inside its shard
        (f = 1) and borrows ACKs from the *other* shard's replicas for
        the conflicting batch.  ACKs and certificate signers count only
        when they are members of the broadcaster's shard, so the borrowed
        signatures certify nothing and no correct replica settles a
        conflicting spend."""
        genesis = {f"c{i}": 100 for i in range(16)}
        system = Astro2System(num_replicas=4, num_shards=2, genesis=genesis, seed=1)
        byzantine = system.replicas[0]
        client = next(
            c for c in sorted(system.directory.clients_of_shard(0))
            if system.directory.rep_of(c) == byzantine.node_id
        )
        batches = {
            "x": Batch([Payment(client, 1, "c1", 10)]),
            "y": Batch([Payment(client, 1, "c2", 10)]),
        }
        targets = {"x": (1, 2), "y": (3, 4, 5)}
        collected = {name: [] for name in batches}
        by_digest = {b.cached_digest: name for name, b in batches.items()}

        def collect(src, ack):
            collected[by_digest[ack.payload_digest]].append(ack.signature)

        byzantine.brb.node.on(SbAck, collect)
        for name, batch in batches.items():
            prepare = SbPrepare(1, batch, 48 + batch.size_bytes)
            for dst in targets[name]:
                system.network.send(0, dst, prepare, size=prepare.size)
        system.sim.run(until=system.sim.now + 1.0)
        for name, batch in batches.items():
            own = sign(byzantine.key, ("brb-ack", 0, 1, batch.cached_digest))
            proof = (own, *collected[name])
            commit = SbCommit(0, 1, batch.cached_digest, proof, 264)
            for dst in targets[name]:
                system.network.send(0, dst, commit, size=264)
        system.settle_all()

        beneficiaries = {
            replica.node_id: [p.beneficiary for p in replica.state.xlog(client)]
            for replica in system.replicas[1:4]
        }
        assert beneficiaries[1] == beneficiaries[2] == ["c1"]
        assert beneficiaries[3] in ([], ["c1"])

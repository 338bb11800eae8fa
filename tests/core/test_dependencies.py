"""Unit tests for CREDIT messages and dependency certificates (§IV-A)."""

import pickle

import pytest

from repro.core.dependencies import (
    CreditMessage,
    DependencyCertificate,
    DependencyCollector,
    _credit_from_wire,
    credit_content,
    subbatch_digest_of,
    verify_certificate,
)
from repro.core.directory import Directory
from repro.core.payment import Payment, pack_payments
from repro.crypto import replica_owner, sign
from repro.crypto.signatures import Signature


@pytest.fixture
def setup(keychain):
    directory = Directory()
    directory.register_shard(0, (0, 1, 2, 3))
    directory.register_shard(1, (4, 5, 6, 7))
    keys = {i: keychain.generate(replica_owner(i)) for i in range(8)}
    directory.register_client("alice", 0)
    directory.register_client("bob", 4)
    return directory, keys


def _certificate(keys, payments, shard=0, signers=(0, 1)):
    digest_value = subbatch_digest_of(payments)
    content = credit_content(shard, digest_value)
    signatures = tuple(sign(keys[i], content) for i in signers)
    return DependencyCertificate(payments[0], shard, tuple(payments), signatures)


class TestCreditMessage:
    def test_create_signs_subbatch(self, setup, keychain):
        directory, keys = setup
        payments = (Payment("alice", 1, "bob", 10),)
        message = CreditMessage.create(keys[0], 0, payments)
        assert message.subbatch_digest == subbatch_digest_of(payments)
        assert message.size > 100

    def test_explicit_digest_must_match_content(self, setup):
        directory, keys = setup
        payments = (Payment("alice", 1, "bob", 10),)
        message = CreditMessage.create(keys[0], 0, payments)
        assert message.subbatch_digest == subbatch_digest_of(message.payments)


class TestCertificateVerification:
    def test_valid_certificate(self, setup, keychain):
        directory, keys = setup
        payments = (Payment("alice", 1, "bob", 10),)
        cert = _certificate(keys, payments)
        assert verify_certificate(cert, directory, keychain)

    def test_too_few_signers(self, setup, keychain):
        directory, keys = setup
        payments = (Payment("alice", 1, "bob", 10),)
        cert = _certificate(keys, payments, signers=(0,))
        assert not verify_certificate(cert, directory, keychain)

    def test_duplicate_signers_do_not_count_twice(self, setup, keychain):
        directory, keys = setup
        payments = (Payment("alice", 1, "bob", 10),)
        digest_value = subbatch_digest_of(payments)
        content = credit_content(0, digest_value)
        signature = sign(keys[0], content)
        cert = DependencyCertificate(payments[0], 0, payments, (signature, signature))
        assert not verify_certificate(cert, directory, keychain)

    def test_signer_outside_shard_rejected(self, setup, keychain):
        directory, keys = setup
        payments = (Payment("alice", 1, "bob", 10),)
        # Signers 4, 5 belong to shard 1, not the claimed shard 0.
        cert = _certificate(keys, payments, shard=0, signers=(4, 5))
        assert not verify_certificate(cert, directory, keychain)

    def test_client_signature_rejected(self, setup, keychain):
        directory, keys = setup
        client_key = keychain.generate(("client", "mallory"))
        payments = (Payment("alice", 1, "bob", 10),)
        digest_value = subbatch_digest_of(payments)
        content = credit_content(0, digest_value)
        signatures = (sign(client_key, content), sign(keys[0], content))
        cert = DependencyCertificate(payments[0], 0, payments, signatures)
        assert not verify_certificate(cert, directory, keychain)

    def test_payment_not_in_subbatch_rejected(self, setup, keychain):
        directory, keys = setup
        subbatch = (Payment("alice", 1, "bob", 10),)
        outsider = Payment("alice", 2, "bob", 999)
        digest_value = subbatch_digest_of(subbatch)
        content = credit_content(0, digest_value)
        signatures = tuple(sign(keys[i], content) for i in (0, 1))
        cert = DependencyCertificate(outsider, 0, subbatch, signatures)
        assert not verify_certificate(cert, directory, keychain)

    def test_digest_content_mismatch_rejected(self, setup, keychain):
        directory, keys = setup
        subbatch = (Payment("alice", 1, "bob", 10),)
        other = (Payment("alice", 1, "bob", 11),)
        wrong_digest = subbatch_digest_of(other)
        content = credit_content(0, wrong_digest)
        signatures = tuple(sign(keys[i], content) for i in (0, 1))
        cert = DependencyCertificate(
            subbatch[0], 0, subbatch, signatures, subbatch_digest=wrong_digest
        )
        assert not verify_certificate(cert, directory, keychain)

    def test_more_than_f_plus_one_signatures_rejected(self, setup, keychain):
        """CPU-occupancy bound: a Byzantine representative padding a
        certificate with extra (even valid) signatures must be rejected
        by the O(1) length check, not verified signature by signature."""
        directory, keys = setup
        payments = (Payment("alice", 1, "bob", 10),)
        cert = _certificate(keys, payments, signers=(0, 1, 2))
        assert not verify_certificate(cert, directory, keychain)
        # The honest size still verifies.
        assert verify_certificate(
            _certificate(keys, payments, signers=(0, 1)), directory, keychain
        )

    def test_empty_signature_tuple_rejected(self, setup, keychain):
        directory, keys = setup
        payments = (Payment("alice", 1, "bob", 10),)
        cert = DependencyCertificate(payments[0], 0, payments, ())
        assert not verify_certificate(cert, directory, keychain)

    def test_unknown_shard_rejected(self, setup, keychain):
        directory, keys = setup
        payments = (Payment("alice", 1, "bob", 10),)
        digest_value = subbatch_digest_of(payments)
        content = credit_content(9, digest_value)
        signatures = tuple(sign(keys[i], content) for i in (0, 1))
        cert = DependencyCertificate(payments[0], 9, payments, signatures)
        assert not verify_certificate(cert, directory, keychain)

    def test_wire_bytes(self, setup):
        directory, keys = setup
        cert = _certificate(keys, (Payment("alice", 1, "bob", 10),))
        assert cert.wire_bytes == 40 + 2 * 72  # f+1 = 2 entries at f = 1


class TestCertificateEquality:
    """Value equality: copies that crossed a wire are the same certificate
    (the live monitor's convergence check compares replicas' payouts)."""

    def test_unpickled_copy_is_equal_and_hashes_alike(self, setup):
        directory, keys = setup
        cert = _certificate(keys, (Payment("alice", 1, "bob", 10),))
        clone = pickle.loads(pickle.dumps(cert))
        assert clone is not cert
        assert clone == cert
        assert hash(clone) == hash(cert)

    def test_tampered_signatures_compare_unequal(self, setup):
        directory, keys = setup
        payments = (Payment("alice", 1, "bob", 10),)
        cert = _certificate(keys, payments, signers=(0, 1))
        other_signers = _certificate(keys, payments, signers=(0, 2))
        truncated = DependencyCertificate(
            payments[0], 0, payments, cert.signatures[:1]
        )
        assert cert != other_signers
        assert cert != truncated
        assert cert != "not a certificate"

    def test_other_payment_or_shard_compares_unequal(self, setup):
        directory, keys = setup
        payments = (
            Payment("alice", 1, "bob", 10),
            Payment("alice", 2, "bob", 5),
        )
        cert = _certificate(keys, payments)
        sibling = DependencyCertificate(
            payments[1], 0, payments, cert.signatures
        )
        moved = DependencyCertificate(
            payments[0], 1, payments, cert.signatures
        )
        assert cert != sibling
        assert cert != moved

    def test_two_unpickled_copies_of_a_payout_are_equal(self, setup):
        directory, keys = setup
        cert = _certificate(keys, (Payment("alice", 1, "bob", 10),))
        payout = Payment("bob", 1, "alice", 7, deps=(cert,))
        wire = pickle.dumps(payout)
        first, second = pickle.loads(wire), pickle.loads(wire)
        assert first.deps[0] is not second.deps[0]
        assert first == second == payout


class TestCertificateWireForm:
    """Certificates ship core fields only (satellite of PR 20): what the
    digest, ``__eq__`` and ``verify_certificate`` bind, and nothing of
    the history behind the crediting payment."""

    @staticmethod
    def _chain(keys, hops):
        """``hops`` credit-funded spends in a row, one-payment sub-batches:
        each payment carries the certificate of the one that funded it."""
        clients = [f"c{i}" for i in range(hops + 1)]
        certs = []
        deps = ()
        for hop in range(hops):
            payment = Payment(clients[hop], 1, clients[hop + 1], 10, deps=deps)
            cert = _certificate(keys, (payment,))
            certs.append(cert)
            deps = (cert,)
        return certs

    def test_wire_size_does_not_grow_along_a_chain(self, setup):
        directory, keys = setup
        certs = self._chain(keys, 8)
        assert certs[7].payment.deps[0].payment.deps  # history is there...
        # Same-width digest and tokens at every hop (a 64-bit hash pickles
        # in 8 or 9 bytes), so the sizes compare exactly.
        wide = 1 << 62
        signatures = tuple(Signature(replica_owner(i), wide) for i in (0, 1))
        sizes = [
            len(pickle.dumps(DependencyCertificate(
                cert.payment, 0, cert.subbatch, signatures,
                subbatch_digest=wide,
            ), protocol=5))
            for cert in certs
        ]
        assert len(set(sizes)) == 1, sizes  # ...and stays home

    def test_sibling_deps_do_not_ship(self, setup):
        directory, keys = setup
        funded = self._chain(keys, 3)[-1].payment  # carries a certificate
        plain = Payment("zed", 1, "bob", 1)
        with_history = _certificate(keys, (plain, funded))
        without = _certificate(
            keys, (plain, Payment(*funded.core)), signers=(0, 1)
        )
        assert pickle.dumps(with_history) == pickle.dumps(without)

    def test_receiver_side_copy_verifies(self, setup, keychain):
        directory, keys = setup
        for cert in self._chain(keys, 8):
            clone = pickle.loads(pickle.dumps(cert))
            assert clone == cert and hash(clone) == hash(cert)
            assert clone.payment in clone.subbatch
            assert clone.payment.deps == ()
            assert clone.canonical() == cert.canonical()
            assert verify_certificate(clone, directory, keychain)

    def test_forged_membership_survives_the_wire_and_is_rejected(
        self, setup, keychain
    ):
        """The form can still say 'payment not in sub-batch' — it must, so
        that the receiver is the one who rejects it."""
        directory, keys = setup
        payments = (Payment("alice", 1, "bob", 10),)
        honest = _certificate(keys, payments)
        forged = DependencyCertificate(
            Payment("alice", 1, "bob", 10_000), 0, payments, honest.signatures
        )
        clone = pickle.loads(pickle.dumps(forged))
        assert clone.payment.amount == 10_000
        assert clone.payment not in clone.subbatch
        assert not verify_certificate(clone, directory, keychain)


class _InitProbe:
    """Counts ``Payment.__init__`` calls while installed."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        original = Payment.__init__

        def counting(payment, *args, **kwargs):
            self.calls += 1
            original(payment, *args, **kwargs)

        monkeypatch.setattr(Payment, "__init__", counting)


def _over_the_wire(message):
    clone = pickle.loads(pickle.dumps(message, protocol=5))
    assert clone is not message
    return clone


class TestLazyCreditPayload:
    """A CREDIT from the wire keeps its sub-batch packed; the collector
    reads ``payments`` for the first arrival of a sub-batch only."""

    def test_wire_copy_is_equivalent_and_builds_on_first_read(
        self, setup, monkeypatch
    ):
        directory, keys = setup
        payments = (
            Payment("alice", 1, "bob", 10),
            Payment("alice", 2, "bob", 5, submitted_at=2.5),
        )
        message = CreditMessage.create(keys[0], 0, payments)
        probe = _InitProbe(monkeypatch)
        clone = _over_the_wire(message)
        assert probe.calls == 0
        assert clone.size == message.size
        assert clone.subbatch_digest == message.subbatch_digest
        assert clone.signature == message.signature
        assert pickle.dumps(clone) == pickle.dumps(message)  # re-logged packed
        assert probe.calls == 0
        assert clone.payments == payments
        assert clone.payments[1].submitted_at is None  # core fields only
        assert probe.calls == 2
        assert clone.payments is clone.payments  # built once, then a slot
        with pytest.raises(AttributeError):
            clone.no_such_field

    def test_a_payout_s_certificates_do_not_ride_its_credit(
        self, setup, keychain
    ):
        """The signature and digest bind core fields only, so that is all
        a CREDIT ships: over a certificate-bearing payout it pickles to
        the bytes of one over the bare payout, and still mints."""
        directory, keys = setup
        collector = DependencyCollector(directory, keychain, my_node=4)
        funding = _certificate(keys, (Payment("carl", 1, "alice", 50),))
        bare = Payment("alice", 1, "bob", 10)
        payout = Payment("alice", 1, "bob", 10, deps=(funding,),
                         submitted_at=2.5)
        credits = [CreditMessage.create(keys[i], 0, (payout,)) for i in (0, 1)]
        assert pickle.dumps(credits[0]) == pickle.dumps(
            CreditMessage.create(keys[0], 0, (bare,))
        )
        assert collector.add_credit(0, _over_the_wire(credits[0])) == []
        minted = collector.add_credit(1, _over_the_wire(credits[1]))
        assert [cert.payment for cert in minted] == [bare]
        assert verify_certificate(minted[0], directory, keychain)

    def test_non_first_and_straggler_credits_build_no_payment(
        self, setup, keychain, monkeypatch
    ):
        directory, keys = setup
        collector = DependencyCollector(directory, keychain, my_node=4)
        payments = tuple(Payment("alice", s, "bob", 1) for s in range(1, 65))
        from_wire = [
            _over_the_wire(CreditMessage.create(keys[i], 0, payments))
            for i in range(4)
        ]
        probe = _InitProbe(monkeypatch)
        # First arrival: the payload is read, validated and buffered.
        assert collector.add_credit(0, from_wire[0]) == []
        assert probe.calls == 64
        # Second arrival completes f+1: certificates from the buffer.
        minted = collector.add_credit(1, from_wire[1])
        assert len(minted) == 64
        # Stragglers of the minted sub-batch.
        assert collector.add_credit(2, from_wire[2]) == []
        assert collector.add_credit(3, from_wire[3]) == []
        assert probe.calls == 64
        assert collector.certified_count == 0
        assert verify_certificate(minted[0], directory, keychain)

    def test_own_delivery_first_means_no_construction_at_all(
        self, setup, keychain, monkeypatch
    ):
        """The live shape: the representative's own settle (a locally
        built message) nearly always arrives first."""
        directory, keys = setup
        collector = DependencyCollector(directory, keychain, my_node=0)
        directory.register_client("carl", 0)
        payments = (Payment("alice", 1, "carl", 10),)
        own = CreditMessage.create(keys[0], 0, payments)
        remote = [
            _over_the_wire(CreditMessage.create(keys[i], 0, payments))
            for i in (1, 2, 3)
        ]
        probe = _InitProbe(monkeypatch)
        assert collector.add_credit(0, own) == []
        assert len(collector.add_credit(1, remote[0])) == 1
        assert collector.add_credit(2, remote[1]) == []
        assert collector.add_credit(3, remote[2]) == []
        assert probe.calls == 0

    def test_subbatch_that_does_not_unpack_is_an_ignored_credit(
        self, setup, keychain, malformed_columns
    ):
        """Validly signed, transport-authentic, undecodable: the handler
        must neither raise nor buffer anything, and the honest flow for
        the same digest still mints."""
        directory, keys = setup
        collector = DependencyCollector(directory, keychain, my_node=4)
        real = (Payment("alice", 1, "bob", 10),)
        claimed = subbatch_digest_of(real)
        signature = sign(keys[0], credit_content(0, claimed))
        poisoned = _over_the_wire(
            _credit_from_wire(0, *malformed_columns, signature, claimed)
        )
        assert collector.add_credit(0, poisoned) == []
        assert collector.pending_subbatches == 0
        create = CreditMessage.create
        collector.add_credit(0, create(keys[0], 0, real))
        minted = collector.add_credit(1, create(keys[1], 0, real))
        assert [cert.amount for cert in minted] == [10]

    def test_malformed_straggler_costs_nothing_and_raises_nothing(
        self, setup, keychain
    ):
        directory, keys = setup
        collector = DependencyCollector(directory, keychain, my_node=4)
        real = (Payment("alice", 1, "bob", 10),)
        for node in (0, 1):
            message = CreditMessage.create(keys[node], 0, real)
            collector.add_credit(node, message)
        claimed = subbatch_digest_of(real)
        signature = sign(keys[2], credit_content(0, claimed))
        junk = _credit_from_wire(0, 7, "x", signature, claimed)
        assert collector.add_credit(2, junk) == []


class TestCollectorCapture:
    """What a snapshot keeps of the collector: its aggregation state,
    never the directory or the keychain."""

    def test_capture_refill_resumes_mid_collection(self, setup, keychain):
        directory, keys = setup
        collector = DependencyCollector(directory, keychain, my_node=4)
        done = (Payment("alice", 1, "bob", 10),)
        half = (Payment("alice", 2, "bob", 5),)
        for node in (0, 1):
            message = CreditMessage.create(keys[node], 0, done)
            collector.add_credit(node, message)
        collector.add_credit(0, CreditMessage.create(keys[0], 0, half))
        captured = pickle.loads(pickle.dumps(collector.capture()))
        assert set(captured) == {
            "partial", "payments", "certified", "evicted_pending",
            "evicted_certified", "minted_subbatches",
        }

        restored = DependencyCollector(directory, keychain, my_node=4)
        restored.refill(captured)
        assert restored.directory is directory
        assert restored.keychain is keychain
        assert restored.minted_subbatches == 1
        assert restored.pending_subbatches == 1
        assert restored.certified_count == 1
        # The half-collected sub-batch completes; the minted one does not
        # re-mint; its stragglers retire the dedup entry.
        minted = restored.add_credit(1, CreditMessage.create(keys[1], 0, half))
        assert [cert.amount for cert in minted] == [5]
        assert verify_certificate(minted[0], directory, keychain)
        for node in (2, 3):
            for subbatch in (done, half):
                message = CreditMessage.create(keys[node], 0, subbatch)
                assert restored.add_credit(node, message) == []
        assert restored.certified_count == 0
        # The original was not touched through shared containers.
        assert collector.pending_subbatches == 1
        assert collector.certified_count == 1


class TestDependencyCollector:
    def test_f_plus_one_credits_mint_certificates(self, setup, keychain):
        directory, keys = setup
        collector = DependencyCollector(directory, keychain, my_node=4)
        payments = (Payment("alice", 1, "bob", 10),)
        first = collector.add_credit(0, CreditMessage.create(keys[0], 0, payments))
        assert first == []
        second = collector.add_credit(1, CreditMessage.create(keys[1], 0, payments))
        assert len(second) == 1
        cert = second[0]
        assert cert.beneficiary == "bob"
        assert cert.amount == 10
        assert verify_certificate(cert, directory, keychain)

    def test_additional_credits_do_not_remint(self, setup, keychain):
        directory, keys = setup
        collector = DependencyCollector(directory, keychain, my_node=4)
        payments = (Payment("alice", 1, "bob", 10),)
        collector.add_credit(0, CreditMessage.create(keys[0], 0, payments))
        collector.add_credit(1, CreditMessage.create(keys[1], 0, payments))
        third = collector.add_credit(2, CreditMessage.create(keys[2], 0, payments))
        assert third == []

    def test_duplicate_sender_does_not_advance(self, setup, keychain):
        directory, keys = setup
        collector = DependencyCollector(directory, keychain, my_node=4)
        payments = (Payment("alice", 1, "bob", 10),)
        message = CreditMessage.create(keys[0], 0, payments)
        assert collector.add_credit(0, message) == []
        assert collector.add_credit(0, message) == []

    def test_invalid_signature_ignored(self, setup, keychain):
        directory, keys = setup
        collector = DependencyCollector(directory, keychain, my_node=4)
        payments = (Payment("alice", 1, "bob", 10),)
        # Replica 1 relays a message signed by replica 0: signer mismatch.
        message = CreditMessage.create(keys[0], 0, payments)
        assert collector.add_credit(1, message) == []

    def test_sender_outside_shard_ignored(self, setup, keychain):
        directory, keys = setup
        collector = DependencyCollector(directory, keychain, my_node=4)
        payments = (Payment("alice", 1, "bob", 10),)
        message = CreditMessage.create(keys[4], 0, payments)
        assert collector.add_credit(4, message) == []

    def test_forged_payload_credit_rejected(self, setup, keychain):
        """Regression: the signature only covers the *claimed* digest, so
        a Byzantine settler can validly sign digest A while shipping
        payments B.  An unvalidated first arrival used to poison the
        ``_payments`` buffer (setdefault keeps the first copy), minting
        certificates that ``verify_certificate`` rejects at settle — after
        ``_apply_credit`` had already inflated the projected balance."""
        directory, keys = setup
        collector = DependencyCollector(directory, keychain, my_node=4)
        real = (Payment("alice", 1, "bob", 10),)
        forged = (Payment("alice", 1, "bob", 10_000),)
        claimed_digest = subbatch_digest_of(real)
        signature = sign(keys[0], credit_content(0, claimed_digest))
        poisoned = CreditMessage(0, forged, signature,
                                 subbatch_digest=claimed_digest)
        # The forged first arrival is rejected outright...
        assert collector.add_credit(0, poisoned) == []
        assert collector.pending_subbatches == 0
        # ...so the honest flow still mints a *valid* certificate.
        collector.add_credit(0, CreditMessage.create(keys[0], 0, real))
        minted = collector.add_credit(1, CreditMessage.create(keys[1], 0, real))
        assert len(minted) == 1
        assert minted[0].amount == 10
        assert verify_certificate(minted[0], directory, keychain)

    def test_only_my_clients_get_certificates(self, setup, keychain):
        directory, keys = setup
        directory.register_client("carol", 5)  # another rep in shard 1
        collector = DependencyCollector(directory, keychain, my_node=4)
        payments = (
            Payment("alice", 1, "bob", 10),
            Payment("alice", 2, "carol", 7),
        )
        collector.add_credit(0, CreditMessage.create(keys[0], 0, payments))
        minted = collector.add_credit(1, CreditMessage.create(keys[1], 0, payments))
        assert [cert.beneficiary for cert in minted] == ["bob"]


class TestCollectorCompaction:
    """GC bounds: sub-batches stranded below f+1 (crashed settlers,
    §VI-D) and the certified-key dedup memory must not grow forever."""

    def _stranded(self, keys, index):
        """A sub-batch that only ever receives one CREDIT."""
        return (Payment("alice", index, "bob", 1),)

    def test_pending_subbatches_bounded(self, setup, keychain):
        directory, keys = setup
        collector = DependencyCollector(
            directory, keychain, my_node=4, max_pending=8
        )
        for index in range(1, 101):
            payments = self._stranded(keys, index)
            collector.add_credit(0, CreditMessage.create(keys[0], 0, payments))
        assert collector.pending_subbatches <= 8
        assert collector.evicted_pending == 100 - 8
        # _payments stays in lockstep with _partial.
        assert len(collector._payments) == collector.pending_subbatches

    def test_eviction_is_oldest_first_and_survivors_still_certify(
        self, setup, keychain
    ):
        directory, keys = setup
        collector = DependencyCollector(
            directory, keychain, my_node=4, max_pending=2
        )
        old = self._stranded(keys, 1)
        collector.add_credit(0, CreditMessage.create(keys[0], 0, old))
        newer = [self._stranded(keys, i) for i in (2, 3)]
        for payments in newer:
            collector.add_credit(0, CreditMessage.create(keys[0], 0, payments))
        # 'old' was evicted; the newest survivor still completes.
        minted = collector.add_credit(
            1, CreditMessage.create(keys[1], 0, newer[-1])
        )
        assert len(minted) == 1
        # A straggler CREDIT for the evicted sub-batch restarts collection
        # from zero instead of erroring.
        assert collector.add_credit(1, CreditMessage.create(keys[1], 0, old)) == []
        assert collector.add_credit(0, CreditMessage.create(keys[0], 0, old)) != []

    def test_certified_dedup_memory_bounded(self, setup, keychain):
        directory, keys = setup
        collector = DependencyCollector(
            directory, keychain, my_node=4, max_certified=16
        )
        for index in range(1, 51):
            payments = self._stranded(keys, index)
            collector.add_credit(0, CreditMessage.create(keys[0], 0, payments))
            minted = collector.add_credit(
                1, CreditMessage.create(keys[1], 0, payments)
            )
            assert len(minted) == 1
        assert collector.certified_count <= 16
        assert collector.evicted_certified == 50 - 16
        # Recent certifications still dedup straggler CREDITs.
        recent = self._stranded(keys, 50)
        assert collector.add_credit(
            2, CreditMessage.create(keys[2], 0, recent)
        ) == []

    def test_certified_entry_retires_after_all_settlers_report(
        self, setup, keychain
    ):
        """Dedup state is transient: once all N settlers' CREDITs arrived
        the entry drops — replay-safely, since a re-mint would need f+1
        distinct signers and at most f Byzantine replicas can resend."""
        directory, keys = setup
        collector = DependencyCollector(directory, keychain, my_node=4)
        payments = (Payment("alice", 1, "bob", 10),)
        messages = {
            i: CreditMessage.create(keys[i], 0, payments) for i in range(4)
        }
        collector.add_credit(0, messages[0])
        minted = collector.add_credit(1, messages[1])
        assert len(minted) == 1
        assert collector.certified_count == 1  # replicas 2, 3 outstanding
        assert collector.add_credit(2, messages[2]) == []
        assert collector.add_credit(3, messages[3]) == []
        assert collector.certified_count == 0  # fully reported: retired
        # A single replica replaying its CREDIT post-retirement restarts
        # collection but cannot reach f+1 distinct signers alone.
        assert collector.add_credit(0, messages[0]) == []
        assert collector.pending_subbatches == 1

    def test_long_run_memory_stays_bounded(self, setup, keychain):
        """Sustained mixed traffic: memory is a function of the caps, not
        of how many sub-batches ever passed through."""
        directory, keys = setup
        collector = DependencyCollector(
            directory, keychain, my_node=4, max_pending=32, max_certified=64
        )
        for index in range(1, 2001):
            payments = (Payment("alice", index, "bob", 1),)
            collector.add_credit(0, CreditMessage.create(keys[0], 0, payments))
            if index % 3 == 0:  # two thirds of sub-batches never complete
                collector.add_credit(
                    1, CreditMessage.create(keys[1], 0, payments)
                )
        assert collector.pending_subbatches <= 32
        assert len(collector._payments) <= 32
        assert collector.certified_count <= 64

    def test_invalid_bounds_rejected(self, setup, keychain):
        directory, keys = setup
        with pytest.raises(ValueError):
            DependencyCollector(directory, keychain, 4, max_pending=0)

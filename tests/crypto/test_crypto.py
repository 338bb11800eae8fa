"""Unit tests for the simulated cryptography substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.brb.batching import Batch
from repro.core.payment import Payment
from repro.crypto import (
    CryptoError,
    Keychain,
    Signature,
    canonical,
    client_owner,
    digest,
    replica_owner,
    sign,
    verify,
)


class TestCanonical:
    def test_primitives_pass_through(self):
        for value in (None, True, 42, 3.14, "s", b"b"):
            assert canonical(value) == value

    def test_lists_and_tuples_normalize(self):
        assert canonical([1, 2]) == canonical((1, 2))

    def test_dict_order_independent(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_nested_structures(self):
        value = {"k": [1, (2, 3)], "s": {4, 5}}
        assert canonical(value) == canonical(value)

    def test_object_with_canonical_method(self):
        class Thing:
            def canonical(self):
                return ("thing", 7)

        assert canonical(Thing()) == ("obj", "Thing", ("thing", 7))

    def test_uncanonicalizable_raises(self):
        with pytest.raises(TypeError):
            canonical(object())


class TestDigest:
    def test_equal_content_equal_digest(self):
        assert digest(("pay", 1, "bob")) == digest(("pay", 1, "bob"))

    def test_different_content_different_digest(self):
        assert digest(("pay", 1)) != digest(("pay", 2))

    # Kept deliberately small: before digests were memoized this property
    # re-canonicalized a pathological nested structure on every example
    # and took ~5s on its own; 25 examples of a flat tuple cover the
    # determinism claim just as well.
    @settings(max_examples=25, deadline=None)
    @given(st.tuples(st.integers(), st.text(), st.booleans()))
    def test_digest_deterministic(self, value):
        assert digest(value) == digest(value)

    def test_nested_structure_deterministic(self):
        value = {"k": [1, (2, 3)], "s": frozenset({4, 5}), "b": b"x"}
        assert digest(value) == digest(value)

    def test_second_digest_of_same_message_hits_cache(self, monkeypatch):
        """Memoization regression: digesting a batch twice must answer
        from the per-object cache, not re-canonicalize its payments
        (which compute their own digests on demand, holding nothing)."""
        batch = Batch([Payment("alice", 1, "bob", 5)])
        first = digest(batch)
        monkeypatch.setattr(
            Payment,
            "canonical",
            lambda self: pytest.fail("cache miss: canonical() recomputed"),
        )
        assert digest(batch) == first

    def test_equal_payments_equal_digest_across_objects(self):
        a = Payment("alice", 1, "bob", 5)
        b = Payment("alice", 1, "bob", 5)
        assert digest(a) == digest(b)
        assert digest(a) != digest(Payment("alice", 1, "bob", 6))


class TestSignatures:
    def test_sign_verify_round_trip(self, keychain):
        key = keychain.generate("alice")
        signature = sign(key, ("transfer", 5))
        assert verify(keychain, signature, ("transfer", 5))

    def test_tampered_content_fails(self, keychain):
        key = keychain.generate("alice")
        signature = sign(key, ("transfer", 5))
        assert not verify(keychain, signature, ("transfer", 6))

    def test_forged_token_fails(self, keychain):
        keychain.generate("alice")
        forged = Signature("alice", 0xDEADBEEF)
        assert not verify(keychain, forged, ("anything",))

    def test_signature_binds_signer(self, keychain):
        alice = keychain.generate("alice")
        keychain.generate("bob")
        signature = sign(alice, "msg")
        relabeled = Signature("bob", signature._token)
        assert not verify(keychain, relabeled, "msg")

    def test_unknown_signer_raises(self, keychain):
        with pytest.raises(CryptoError):
            verify(keychain, Signature("ghost", 1), "msg")

    def test_non_signature_rejected(self, keychain):
        assert not verify(keychain, "not-a-signature", "msg")

    def test_duplicate_key_generation_rejected(self, keychain):
        keychain.generate("alice")
        with pytest.raises(CryptoError):
            keychain.generate("alice")

    def test_signature_equality_and_hash(self, keychain):
        key = keychain.generate("alice")
        a = sign(key, "m")
        b = sign(key, "m")
        assert a == b
        assert hash(a) == hash(b)

    def test_keychain_determinism(self):
        first = Keychain(seed=9)
        second = Keychain(seed=9)
        sig_a = sign(first.generate("x"), "m")
        sig_b = sign(second.generate("x"), "m")
        assert sig_a == sig_b

    @given(st.text(min_size=1), st.text(min_size=1))
    def test_distinct_messages_distinct_signatures(self, m1, m2):
        keychain = Keychain(seed=5)
        key = keychain.generate("signer")
        if m1 != m2:
            assert sign(key, m1) != sign(key, m2)


class TestOwnerNaming:
    def test_replica_and_client_owners_distinct(self):
        assert replica_owner(1) != client_owner(1)
        assert replica_owner(1) == ("replica", 1)
        assert client_owner("alice") == ("client", "alice")

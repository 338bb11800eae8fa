"""Framing layer: length-prefixed pickle frames and wire-class round-trips.

The property tests pin the PR-4 compact ``__reduce__`` wire classes to
the TCP framing: every protocol payload must survive
pickle → length-framed encode → decode *bit-identically* (re-pickling
the decoded object yields the original pickle bytes), so what one
replica process frames is what another — or the WAL — reads back.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.brb.batching import Batch
from repro.brb.bracha import BrbEcho, BrbPrepare, BrbReady
from repro.brb.signed import SbAck, SbCommit, SbPrepare
from repro.core.dependencies import (
    CreditBundle,
    CreditMessage,
    DependencyCertificate,
)
from repro.core.messages import ClientConfirm, ClientSubmit
from repro.core.payment import Payment
from repro.crypto import Keychain, replica_owner
from repro.crypto.signatures import Signature, sign
from repro.transport.framing import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameError,
    decode_exactly_one,
    encode_frame,
)

SETTINGS = dict(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_KEYCHAIN = Keychain(seed=99)
_KEYS = [_KEYCHAIN.generate(replica_owner(i)) for i in range(4)]


def roundtrip(payload):
    """Frame-encode, decode, and assert pickle-level bit identity."""
    frame = encode_frame(payload)
    decoded = decode_exactly_one(frame)
    original = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    rebuilt = pickle.dumps(decoded, protocol=pickle.HIGHEST_PROTOCOL)
    assert rebuilt == original
    return decoded


# ---------------------------------------------------------------------------
# Hypothesis strategies for wire content
# ---------------------------------------------------------------------------
client_ids = st.text(
    alphabet="abcdefgh", min_size=1, max_size=6
).map(lambda s: f"cl-{s}")

amounts = st.integers(min_value=0, max_value=10**9)
seqs = st.integers(min_value=1, max_value=10**6)


@st.composite
def payments(draw, with_deps: bool = False):
    payment = Payment(
        draw(client_ids),
        draw(seqs),
        draw(client_ids),
        draw(amounts),
        submitted_at=draw(
            st.one_of(st.none(), st.floats(0, 1e6, allow_nan=False))
        ),
    )
    if with_deps and draw(st.booleans()):
        cert = draw(certificates())
        payment = Payment(
            payment.spender,
            payment.seq,
            payment.beneficiary,
            payment.amount,
            deps=(cert,),
            submitted_at=payment.submitted_at,
        )
    return payment


@st.composite
def credit_messages(draw):
    signer = draw(st.integers(min_value=0, max_value=3))
    items = draw(st.lists(payments(), min_size=1, max_size=4))
    return CreditMessage.create(_KEYS[signer], 0, tuple(items))


@st.composite
def certificates(draw):
    items = tuple(draw(st.lists(payments(), min_size=1, max_size=3)))
    target = draw(st.integers(min_value=0, max_value=len(items) - 1))
    sigs = tuple(
        sign(_KEYS[i], ("cert", idx))
        for idx, i in enumerate(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=3),
                    min_size=1,
                    max_size=2,
                )
            )
        )
    )
    return DependencyCertificate(items[target], 0, items, sigs)


@st.composite
def batches(draw):
    return Batch(draw(st.lists(payments(with_deps=True), min_size=1, max_size=6)))


# ---------------------------------------------------------------------------
# Property tests: every wire class round-trips bit-identically
# ---------------------------------------------------------------------------
@settings(**SETTINGS)
@given(payments(with_deps=True))
def test_payment_roundtrip(payment):
    decoded = roundtrip(payment)
    # Compare the derived forms; ``==`` of certificate-bearing copies is
    # pinned in tests/core/test_dependencies.py.
    assert decoded.core == payment.core
    assert decoded.identifier == payment.identifier
    assert len(decoded.deps) == len(payment.deps)
    # Derived caches rebuild identically in-process (one hash seed).
    assert decoded.cached_digest == payment.cached_digest


@settings(**SETTINGS)
@given(st.integers(min_value=0, max_value=7), st.integers())
def test_signature_roundtrip(signer, token):
    signature = Signature(signer, token)
    assert roundtrip(signature) == signature


@settings(**SETTINGS)
@given(batches())
def test_batch_roundtrip(batch):
    decoded = roundtrip(batch)
    assert [p.identifier for p in decoded.items] == [
        p.identifier for p in batch.items
    ]
    assert decoded.size_bytes == batch.size_bytes
    assert decoded.cached_digest == batch.cached_digest


@settings(**SETTINGS)
@given(credit_messages())
def test_credit_message_roundtrip(message):
    decoded = roundtrip(message)
    assert decoded.subbatch_digest == message.subbatch_digest
    assert decoded.signature == message.signature


@settings(**SETTINGS)
@given(st.lists(credit_messages(), min_size=1, max_size=3))
def test_credit_bundle_roundtrip(messages):
    bundle = CreditBundle(tuple(messages))
    decoded = roundtrip(bundle)
    assert len(decoded.messages) == len(bundle.messages)


@settings(**SETTINGS)
@given(certificates())
def test_dependency_certificate_roundtrip(cert):
    decoded = roundtrip(cert)
    assert decoded.payment == cert.payment
    assert decoded.signatures == cert.signatures


@settings(**SETTINGS)
@given(seqs, batches())
def test_brb_wire_messages_roundtrip(seq, batch):
    size = batch.size_bytes
    for message in (
        BrbPrepare(seq, batch, size),
        BrbEcho(1, seq, batch, size),
        BrbReady(2, seq, batch, size),
        SbPrepare(seq, batch, size),
        SbAck(1, seq, batch.cached_digest, sign(_KEYS[1], ("ack", seq))),
        SbCommit(
            0,
            seq,
            batch.cached_digest,
            (sign(_KEYS[1], ("a",)), sign(_KEYS[2], ("b",))),
            size,
        ),
    ):
        roundtrip(message)


@settings(**SETTINGS)
@given(payments())
def test_client_messages_roundtrip(payment):
    roundtrip(ClientSubmit(payment))
    roundtrip(ClientConfirm(payment, 12.5))


# ---------------------------------------------------------------------------
# Decoder mechanics
# ---------------------------------------------------------------------------
def test_encode_frame_layout():
    frame = encode_frame("hello")
    body_len = int.from_bytes(frame[:HEADER_BYTES], "big")
    assert body_len == len(frame) - HEADER_BYTES
    assert pickle.loads(frame[HEADER_BYTES:]) == "hello"


def test_multiple_frames_single_feed():
    decoder = FrameDecoder()
    data = b"".join(encode_frame(i) for i in range(5))
    assert decoder.feed(data) == [0, 1, 2, 3, 4]
    assert not decoder.truncated
    assert decoder.frames_decoded == 5


@settings(**SETTINGS)
@given(st.lists(payments(), min_size=1, max_size=5), st.integers(1, 7))
def test_byte_at_a_time_reassembly(items, chunk):
    """Frames survive arbitrary stream segmentation."""
    stream = b"".join(encode_frame(p) for p in items)
    decoder = FrameDecoder()
    out = []
    for start in range(0, len(stream), chunk):
        out.extend(decoder.feed(stream[start : start + chunk]))
    assert [p.identifier for p in out] == [p.identifier for p in items]
    assert not decoder.truncated


def test_truncated_frame_is_pending_not_error():
    frame = encode_frame(("x", 123))
    decoder = FrameDecoder()
    assert decoder.feed(frame[:-2]) == []
    assert decoder.truncated
    assert decoder.pending_bytes == len(frame) - 2
    assert decoder.feed(frame[-2:]) == [("x", 123)]
    assert not decoder.truncated


def test_oversized_frame_rejected():
    frame = encode_frame(b"x" * 256)
    decoder = FrameDecoder(max_frame=64)
    with pytest.raises(FrameError):
        decoder.feed(frame)


def test_zero_length_frame_rejected():
    decoder = FrameDecoder()
    with pytest.raises(FrameError):
        decoder.feed(b"\x00\x00\x00\x00")


def test_undecodable_body_rejected():
    body = b"\x01garbage-not-pickle"
    frame = len(body).to_bytes(4, "big") + body
    with pytest.raises(FrameError):
        FrameDecoder().feed(frame)


def test_encode_rejects_payload_above_cap():
    with pytest.raises(FrameError):
        encode_frame(b"y" * 128, max_frame=64)
    assert MAX_FRAME_BYTES == 16 * 1024 * 1024


def test_decode_exactly_one_rejects_trailing_and_truncation():
    one = encode_frame(1)
    with pytest.raises(FrameError):
        decode_exactly_one(one + encode_frame(2))
    with pytest.raises(FrameError):
        decode_exactly_one(one[:-1])
    assert decode_exactly_one(one) == 1

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

from repro.brb.batching import Batch, _batch_from_wire
from repro.brb.bracha import BrbEcho, BrbPrepare, BrbReady
from repro.brb.signed import SbAck, SbCommit, SbPrepare
from repro.core.dependencies import (
    CreditBundle,
    CreditMessage,
    DependencyCertificate,
)
from repro.core.messages import ClientConfirm, ClientSubmit
from repro.core.payment import Payment, pack_payments, unpack_payments
from repro.crypto import Keychain, replica_owner
from repro.crypto.signatures import Signature, sign
from repro.transport.framing import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    Encoded,
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
# Payment sequences: one packed form, and what the parent wrote still loads
# ---------------------------------------------------------------------------
@settings(**SETTINGS)
@given(st.lists(payments(with_deps=True), max_size=8))
def test_pack_unpack_roundtrip(items):
    flat, extras = pack_payments(items)
    assert len(flat) == 4 * len(items)
    # Extras only for the payments that need them, in order.
    assert [index for index, _deps, _at in extras] == [
        index for index, p in enumerate(items)
        if p.deps or p.submitted_at is not None
    ]
    rebuilt = unpack_payments(flat, extras)
    assert rebuilt == tuple(items)  # core and deps
    assert [p.submitted_at for p in rebuilt] == [p.submitted_at for p in items]
    assert unpack_payments(flat) == tuple(
        Payment(*p.core) for p in items
    )  # cores only: what a certificate ships


#: ``pickle.dumps(obj, protocol=5)`` at bf0ad7e (PR 19), when each class
#: reduced to its constructor over nested ``Payment`` pickles.  A WAL
#: written then holds these forms.  ``paid`` = cl-a#3 -> cl-b 40 at t=1.5,
#: ``other`` = cl-c#1 -> cl-b 2, ``cert`` certifies ``paid`` in
#: ``(paid, other)`` (digest 77, two signatures), ``payout`` = cl-b#1 ->
#: cl-d 41 carrying ``cert``.
PARENT_BATCH = (  # Batch([other, payout])
    b'\x80\x05\x95&\x01\x00\x00\x00\x00\x00\x00\x8c\x12repro.brb.batching'
    b'\x94\x8c\x05Batch\x94\x93\x94\x8c\x12repro.core.payment\x94\x8c\x07Pa'
    b'yment\x94\x93\x94(\x8c\x04cl-c\x94K\x01\x8c\x04cl-b\x94K\x02)Nt\x94R'
    b'\x94h\x05(h\x07K\x01\x8c\x04cl-d\x94K)\x8c\x17repro.core.dependencies'
    b'\x94\x8c\x15DependencyCertificate\x94\x93\x94(h\x05(\x8c\x04cl-a\x94K'
    b'\x03h\x07K()G?\xf8\x00\x00\x00\x00\x00\x00t\x94R\x94K\x00h\x10h\t\x86'
    b'\x94\x8c\x17repro.crypto.signatures\x94\x8c\tSignature\x94\x93\x94'
    b'\x8c\x07replica\x94K\x00\x86\x94M\xe8\x03\x86\x94R\x94h\x14h\x15K\x01'
    b'\x86\x94M\xe9\x03\x86\x94R\x94\x86\x94KMt\x94R\x94\x85\x94Nt\x94R\x94'
    b'\x86\x94\x85\x94R\x94.'
)
PARENT_CREDIT = (  # CreditMessage(0, (paid, other), sig(2), 77)
    b'\x80\x05\x95\xcd\x00\x00\x00\x00\x00\x00\x00\x8c\x17repro.core.depend'
    b'encies\x94\x8c\rCreditMessage\x94\x93\x94(K\x00\x8c\x12repro.core.pay'
    b'ment\x94\x8c\x07Payment\x94\x93\x94(\x8c\x04cl-a\x94K\x03\x8c\x04cl-b'
    b'\x94K()G?\xf8\x00\x00\x00\x00\x00\x00t\x94R\x94h\x05(\x8c\x04cl-c\x94'
    b'K\x01h\x07K\x02)Nt\x94R\x94\x86\x94\x8c\x17repro.crypto.signatures'
    b'\x94\x8c\tSignature\x94\x93\x94\x8c\x07replica\x94K\x02\x86\x94M\xea'
    b'\x03\x86\x94R\x94KMt\x94R\x94.'
)
PARENT_BUNDLE = (  # CreditBundle((it, CreditMessage(0, (other,), sig(3), 78)))
    b'\x80\x05\x95\x04\x01\x00\x00\x00\x00\x00\x00\x8c\x17repro.core.depend'
    b'encies\x94\x8c\x0cCreditBundle\x94\x93\x94h\x00\x8c\rCreditMessage'
    b'\x94\x93\x94(K\x00\x8c\x12repro.core.payment\x94\x8c\x07Payment\x94'
    b'\x93\x94(\x8c\x04cl-a\x94K\x03\x8c\x04cl-b\x94K()G?\xf8\x00\x00\x00'
    b'\x00\x00\x00t\x94R\x94h\x07(\x8c\x04cl-c\x94K\x01h\tK\x02)Nt\x94R\x94'
    b'\x86\x94\x8c\x17repro.crypto.signatures\x94\x8c\tSignature\x94\x93'
    b'\x94\x8c\x07replica\x94K\x02\x86\x94M\xea\x03\x86\x94R\x94KMt\x94R'
    b'\x94h\x04(K\x00h\x0e\x85\x94h\x12h\x13K\x03\x86\x94M\xeb\x03\x86\x94R'
    b'\x94KNt\x94R\x94\x86\x94\x85\x94R\x94.'
)
PARENT_CERTIFICATE = (  # cert
    b'\x80\x05\x95\xe8\x00\x00\x00\x00\x00\x00\x00\x8c\x17repro.core.depend'
    b'encies\x94\x8c\x15DependencyCertificate\x94\x93\x94(\x8c\x12repro.cor'
    b'e.payment\x94\x8c\x07Payment\x94\x93\x94(\x8c\x04cl-a\x94K\x03\x8c'
    b'\x04cl-b\x94K()G?\xf8\x00\x00\x00\x00\x00\x00t\x94R\x94K\x00h\th\x05('
    b'\x8c\x04cl-c\x94K\x01h\x07K\x02)Nt\x94R\x94\x86\x94\x8c\x17repro.cryp'
    b'to.signatures\x94\x8c\tSignature\x94\x93\x94\x8c\x07replica\x94K\x00'
    b'\x86\x94M\xe8\x03\x86\x94R\x94h\x10h\x11K\x01\x86\x94M\xe9\x03\x86'
    b'\x94R\x94\x86\x94KMt\x94R\x94.'
)


def test_pickles_written_by_the_parent_still_load():
    """Old WAL records replay: the constructors the parent's forms name
    are unchanged, and what loads re-pickles in today's form."""
    paid = Payment("cl-a", 3, "cl-b", 40, submitted_at=1.5)
    other = Payment("cl-c", 1, "cl-b", 2)

    cert = pickle.loads(PARENT_CERTIFICATE)
    assert isinstance(cert, DependencyCertificate)
    assert cert.payment == paid and cert.subbatch == (paid, other)
    assert (cert.shard_id, cert.subbatch_digest) == (0, 77)
    assert cert.signatures == (
        Signature(("replica", 0), 1000), Signature(("replica", 1), 1001)
    )

    batch = pickle.loads(PARENT_BATCH)
    assert isinstance(batch, Batch)
    payout = Payment("cl-b", 1, "cl-d", 41, deps=(cert,))
    assert batch.items == (other, payout)
    assert batch.size_bytes == other.wire_bytes + payout.wire_bytes

    credit = pickle.loads(PARENT_CREDIT)
    assert isinstance(credit, CreditMessage)
    assert credit.payments == (paid, other)
    assert credit.payments[0].submitted_at == 1.5
    assert (credit.shard_id, credit.subbatch_digest) == (0, 77)
    assert credit.signature == Signature(("replica", 2), 1002)

    bundle = pickle.loads(PARENT_BUNDLE)
    assert isinstance(bundle, CreditBundle)
    assert [m.payments for m in bundle] == [(paid, other), (other,)]
    assert bundle.size == CreditBundle((credit, bundle.messages[1])).size

    for loaded in (cert, batch, credit, bundle):
        roundtrip(loaded)


class _Call:
    """Pickles as a call ``fn(*args)``: what a peer that controls its
    bytes can put in a frame."""

    def __init__(self, fn, *args) -> None:
        self.call = (fn, args)

    def __reduce__(self):
        return self.call


def test_malformed_columns_never_unpack(malformed_columns):
    with pytest.raises(ValueError):
        unpack_payments(*malformed_columns)


@pytest.mark.parametrize("nested", [False, True], ids=["plain", "encoded"])
def test_malformed_batch_columns_are_frame_errors(malformed_columns, nested):
    """A Batch is built while its frame decodes — in a train directly, or
    inside a broadcast's pre-encoded payload — so bad columns kill the
    frame (and with it the connection), never reach a handler."""
    forged = _Call(_batch_from_wire, *malformed_columns)
    train = (Encoded(forged) if nested else forged,)
    with pytest.raises(FrameError):
        FrameDecoder().feed(encode_frame(train))


def test_encoded_decodes_to_the_payload_itself():
    batch = Batch([Payment("a", 1, "b", 5), Payment("a", 2, "c", 6)])
    shared = Encoded(batch)
    # One body, copied into any number of frames; never an Encoded out.
    first, second = (
        decode_exactly_one(encode_frame((shared, "tail"))) for _ in range(2)
    )
    assert first[1] == second[1] == "tail"
    for decoded in (first[0], second[0]):
        assert isinstance(decoded, Batch)
        assert decoded.items == batch.items
    assert shared.body == pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)


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

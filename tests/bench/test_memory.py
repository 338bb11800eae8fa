"""What a settled payment holds at a replica that decoded it, and what a
pending certificate holds at its beneficiary's representative.

Every replica keeps every settled payment in its spender's xlog, so the
bytes one holds are multiplied by the whole history: the xlog keeps the
payment as columns — its beneficiary, shared with every other payment
naming it, and its amount — and no ``Payment`` object outlives its batch.
An Astro II representative holds a certificate per payment to its clients
until one of them needs it, which under ample balances is for good: a
pending certificate is a reference into its sub-batch, held once.
"""

from __future__ import annotations

from repro.bench.memory import (
    measure_bytes_per_payment,
    measure_bytes_per_pending_certificate,
)
from repro.brb.batching import Batch
from repro.core.payment import Payment
from repro.transport.framing import decode_exactly_one, encode_frame

#: Ceiling on tracemalloc bytes per settled decoded payment (≈ 35
#: measured: a beneficiary slot and an int64 amount, with the columns'
#: overallocation): an xlog that keeps the ``Payment``, or anything per
#: payment beside its two cells, exceeds it.
MAX_BYTES_PER_PAYMENT = 48


#: Ceiling on tracemalloc bytes per pending certificate (≈ 72 measured:
#: two list slots for the ``(record, position)`` reference, and the
#: payment's share of its sub-batch record — four core fields, the f+1
#: signatures).  A ``DependencyCertificate`` and its ``Payment`` per
#: pending certificate, what the representative held before, is ≈ 385.
MAX_BYTES_PER_PENDING_CERTIFICATE = 80


def test_a_settled_decoded_payment_holds_at_most_48_bytes():
    assert measure_bytes_per_payment() <= MAX_BYTES_PER_PAYMENT


def test_a_pending_certificate_holds_at_most_80_bytes():
    measured = measure_bytes_per_pending_certificate()
    assert measured <= MAX_BYTES_PER_PENDING_CERTIFICATE, measured


def test_payments_from_two_frames_share_their_client_ids():
    first, second = (
        decode_exactly_one(encode_frame(Batch([
            Payment("client-" + str(7), seq, "client-" + str(9), 1)
        ])))
        for seq in (1, 2)
    )
    (a,), (b,) = first, second
    assert a.spender is b.spender
    assert a.beneficiary is b.beneficiary

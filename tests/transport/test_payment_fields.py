"""A payment whose seq or amount is not an ``int`` never decodes.

The int64 account slabs cannot settle a float (or a ``bool``, which
would settle as 0/1), and by the time settle raises, the broadcast layer
has recorded the batch as delivered.  So ``Payment`` refuses such a
field at construction, and every wire form that carries payments —
packed columns, a ``Batch`` in a train, a ``ClientSubmit`` — fails to
decode with :class:`FrameError`, which drops the connection.
"""

from __future__ import annotations

import pytest

from repro.brb.batching import Batch, _batch_from_wire
from repro.core.messages import ClientSubmit
from repro.core.payment import Payment, unpack_payments
from repro.transport.framing import FrameError, decode_exactly_one, encode_frame

#: (seq, amount) pairs a peer could put on the wire in place of ints.
BAD_FIELDS = [(1, 1.5), (1, True), (1.0, 5)]


class _Forged:
    """Pickles as ``fn(*args)``: what a peer can write, bypassing the
    constructors the sending side runs."""

    def __init__(self, fn, *args) -> None:
        self.fn, self.args = fn, args

    def __reduce__(self):
        return self.fn, self.args


@pytest.mark.parametrize("seq, amount", BAD_FIELDS)
def test_payment_refuses_a_non_int_seq_or_amount(seq, amount):
    with pytest.raises(TypeError):
        Payment("a", seq, "b", amount)


@pytest.mark.parametrize("seq, amount", BAD_FIELDS)
def test_packed_columns(seq, amount):
    with pytest.raises(ValueError):
        unpack_payments(("a", seq, "b", amount))
    frame = encode_frame(_Forged(unpack_payments, ("a", seq, "b", amount), ()))
    with pytest.raises(FrameError):
        decode_exactly_one(frame)


@pytest.mark.parametrize("seq, amount", BAD_FIELDS)
def test_batch_train(seq, amount):
    good = Batch([Payment("c", 1, "d", 2)])
    bad = _Forged(_batch_from_wire, ("c", 2, "d", 2, "a", seq, "b", amount), ())
    assert decode_exactly_one(encode_frame((good,))) is not None
    with pytest.raises(FrameError):
        decode_exactly_one(encode_frame((good, bad)))


@pytest.mark.parametrize("seq, amount", BAD_FIELDS)
def test_client_submit(seq, amount):
    submit = ClientSubmit(Payment("a", 1, "b", 1))
    submit.payment = _Forged(Payment, "a", seq, "b", amount, (), None)
    with pytest.raises(FrameError):
        decode_exactly_one(encode_frame((submit,)))

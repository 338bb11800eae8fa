"""Length-framed pickle streams: the codec under the TCP backend and the WAL.

One frame is a 4-byte big-endian body length followed by the pickled
body.  This module is a generic codec — it frames whatever object it is
handed and knows nothing of what the body means:

* on the wire (:mod:`repro.transport.tcp`) the body is a **train**, a
  tuple of payloads — everything a node sent one peer during a loop
  turn, at most 32 — so class globals are pickled and resolved once per
  train, not once per message, and the receiver rejects any body that is
  not a tuple;
* in the write-ahead log (:mod:`repro.core.persistence`) the body is one
  record, framed and flushed on its own.

The payloads are the compact ``__reduce__`` wire classes (Payment,
Batch, CreditMessage/CreditBundle, Sb*/Brb*, ClientSubmit/ClientConfirm,
...), so one serialization format covers real sockets between processes
and the log on disk.  A payment *sequence* inside them is one flat tuple
of core fields (:func:`repro.core.payment.pack_payments`), not a nest of
per-payment pickles; and a payload bound for several peers is pickled
once, as an :class:`Encoded`, which every train then carries as bytes.

Pickle between mutually authenticated replicas matches the paper's
trust model: the handshake (:mod:`repro.transport.tcp`) ensures frames
only ever come from holders of the cluster secret, exactly like the
MAC-authenticated links the simulator assumes.  The length prefix is
still validated defensively — a truncated or corrupt stream must kill
the connection, not the process.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, List, Optional

__all__ = [
    "Encoded",
    "FrameDecoder",
    "FrameError",
    "MAX_FRAME_BYTES",
    "HEADER_BYTES",
    "encode_frame",
]

#: Frames above this are rejected and the connection dropped.  The
#: largest legitimate payload is a full batch of 256 payments with
#: attached certificates — well under a megabyte, and a train carries at
#: most 32 payloads; 16 MiB leaves room for both while bounding a
#: malicious length prefix.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Length prefix: one unsigned 32-bit big-endian integer.
HEADER_BYTES = 4

_pack_header = struct.Struct(">I").pack
_unpack_header = struct.Struct(">I").unpack_from


class FrameError(ValueError):
    """A malformed frame (oversized, zero-length, or undecodable)."""


def encode_frame(payload: Any, max_frame: int = MAX_FRAME_BYTES) -> bytes:
    """Pickle ``payload`` and prepend the length header."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > max_frame:
        raise FrameError(
            f"frame of {len(body)} bytes exceeds the {max_frame}-byte cap"
        )
    return _pack_header(len(body)) + body


class Encoded:
    """A payload pickled once, to ride in any number of frames.

    Pickling an ``Encoded`` copies its bytes and emits a call to
    ``pickle.loads`` on them, so the decoder hands out the payload itself
    — never this wrapper.  A broadcast builds one per payload and puts it
    on every peer's train (:meth:`repro.transport.tcp.TcpTransport.broadcast`).
    """

    __slots__ = ("body",)

    def __init__(self, payload: Any) -> None:
        self.body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    def __reduce__(self):
        return (pickle.loads, (self.body,))


class FrameDecoder:
    """Incremental decoder: feed bytes, harvest complete payloads.

    Raises :class:`FrameError` on a length prefix that is zero or above
    ``max_frame`` — the caller must drop the connection, since stream
    framing cannot resynchronize after a bad header.  A partial frame is
    simply retained until more bytes arrive (:attr:`truncated` reports
    whether unconsumed bytes are pending, e.g. at EOF).
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()
        self.frames_decoded = 0

    def feed(self, data: bytes) -> List[Any]:
        """Append ``data`` and return every now-complete payload in order."""
        buffer = self._buffer
        buffer.extend(data)
        out: List[Any] = []
        offset = 0
        while len(buffer) - offset >= HEADER_BYTES:
            (length,) = _unpack_header(buffer, offset)
            if length == 0 or length > self.max_frame:
                raise FrameError(
                    f"bad frame length {length} (cap {self.max_frame})"
                )
            if len(buffer) - offset - HEADER_BYTES < length:
                break
            start = offset + HEADER_BYTES
            end = start + length
            try:
                payload = pickle.loads(bytes(buffer[start:end]))
            except Exception as exc:
                raise FrameError(f"undecodable frame: {exc!r}") from exc
            out.append(payload)
            self.frames_decoded += 1
            offset = end
        if offset:
            del buffer[:offset]
        return out

    @property
    def truncated(self) -> bool:
        """Whether a partial frame is buffered (data loss if at EOF)."""
        return len(self._buffer) > 0

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


def decode_exactly_one(
    data: bytes, max_frame: int = MAX_FRAME_BYTES
) -> Optional[Any]:
    """Decode ``data`` as exactly one complete frame, else raise.

    Test/diagnostic helper: rejects trailing bytes and truncation.
    """
    decoder = FrameDecoder(max_frame=max_frame)
    frames = decoder.feed(data)
    if len(frames) != 1 or decoder.truncated:
        raise FrameError(
            f"expected exactly one frame, got {len(frames)} "
            f"(+{decoder.pending_bytes} trailing bytes)"
        )
    return frames[0]

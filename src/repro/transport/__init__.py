"""Transport abstraction: protocol objects over sim or real sockets.

The protocol layers (``core/``, ``brb/``, ``consensus/``) are written
against the :class:`~repro.transport.interface.Transport` /
:class:`~repro.transport.interface.Clock` contracts.  Two backends
implement them:

* :class:`repro.sim.node.Node` — the discrete-event simulator backend
  (byte-identical histories, the golden-test substrate);
* :class:`repro.transport.tcp.TcpTransport` — real asyncio TCP sockets
  with length-framed, HMAC-authenticated streams and a wall-clock timer
  (:class:`repro.transport.clock.RealTimeClock`).

:mod:`repro.transport.live` holds the parts of a live deployment
(assembly rule, :class:`~repro.transport.live.ReplicaHost`, control
channel, open-loop load generator); ``python -m repro.transport.cluster``
places N of those hosts — one OS process each — on localhost, drives
load and faults against them and measures wall-clock throughput.
"""

from .interface import Clock, Transport, TimerHandle
from .endpoint import ProtocolEndpoint
from .framing import FrameDecoder, FrameError, MAX_FRAME_BYTES, encode_frame

__all__ = [
    "Clock",
    "Transport",
    "TimerHandle",
    "ProtocolEndpoint",
    "FrameDecoder",
    "FrameError",
    "MAX_FRAME_BYTES",
    "encode_frame",
]

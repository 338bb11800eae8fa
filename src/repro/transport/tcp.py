"""Asyncio TCP backend for the :class:`~repro.transport.interface.Transport`
contract.

One OS process per node.  Design (exemplar: the lightning bolts
08-transport framing/handshake design referenced from ROADMAP):

* **Length-framed pickle streams** (:mod:`repro.transport.framing`) —
  over the protocol classes' compact ``__reduce__`` encodings.
* **The wire unit is a train** — one frame carries a *tuple* of
  payloads, everything one node sent one peer during a loop turn (at
  most :data:`TRAIN_MAX_PAYLOADS`).  The paper batches at the broadcast
  layer "to amortize authentication and network overheads" (§VI-A); a
  train does the same one layer down, for the one-payment
  ``ClientSubmit``/``ClientConfirm`` messages batching cannot reach:
  one pickle (class globals emitted and resolved once), one frame, one
  ``write`` per peer per loop turn instead of per message.
* **A broadcast payload is encoded once** — ``broadcast`` pickles it
  into a :class:`~repro.transport.framing.Encoded` and puts that on
  every target's train, so a PREPARE of 256 payments is walked by pickle
  once, not once per peer, each train copies its bytes, and receivers
  decode the payload itself.  ``encode_frame`` still runs exactly once
  per wire frame.
* **HMAC-authenticated handshake** — a shared cluster secret and an
  HMAC-SHA256 challenge-response in both directions before any frame is
  accepted, realizing the authenticated point-to-point links the paper
  assumes (§III).  A peer that fails the handshake is disconnected
  before a single payload byte is parsed.
* **One connection per direction** — a node dials every peer for its
  own outbound traffic and accepts inbound connections for theirs, so
  stream ownership is unambiguous and reconnects never race.
* **Per-peer outbound backlogs with reconnect/backoff** — ``send`` is
  fire-and-forget: it appends the payload to the peer's open train and
  returns.  A per-peer sender task seals the open train, writes every
  sealed train and drains; on connection failure it retries with
  exponential backoff.  What is *in flight* is a train: a failed write
  loses that train and nothing else (trains still in the backlog wait
  for the redial) — exactly the asynchronous-network semantics the
  protocols are built for (the simulator drops sends to crashed nodes
  the same way).

Why the open train is bounded and sealed eagerly: payload objects that
wait for the flush survive the young collections, get promoted, and
feed CPython's ``long_lived_pending > long_lived_total / 4`` trigger for
full collections over the whole replica state — so no payload object
outlives 32 further sends to its peer or the current loop turn, and a
broadcast payload is ``bytes`` from the start.  What full collections
may cost is the policy every started transport holds: :mod:`.collector`.

Everything runs on one asyncio loop per process; protocol handlers are
synchronous callbacks invoked from receiver tasks, so replica code needs
no locking — the same single-threaded execution model as the simulator.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import os
import random
import struct
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from . import collector
from .clock import RealTimeClock
from .framing import (
    MAX_FRAME_BYTES,
    Encoded,
    FrameDecoder,
    FrameError,
    encode_frame,
)

__all__ = ["TcpTransport", "HandshakeError", "TransportStats"]

#: Protocol magic: rejects accidental cross-protocol connections early.
_MAGIC = b"AST1"
_NONCE_BYTES = 16
_TAG_BYTES = hashlib.sha256().digest_size
_ID = struct.Struct(">I")

#: Reconnect backoff: first retry after INITIAL, doubling to CAP.
RECONNECT_INITIAL = 0.05
RECONNECT_CAP = 2.0

#: Per-peer outbound backlog bound, in payloads.  A permanently dead
#: peer must not grow memory without limit; on overflow the *oldest*
#: entry is dropped — a sealed train whole, else the open train's first
#: payload (the protocols tolerate loss to faulty peers, and newer
#: payloads are the ones a recovering peer can still use).
OUTBOUND_QUEUE_PAYLOADS = 4096

#: Payloads per train.  ``send`` seals the open train to ``bytes`` when
#: it reaches this many, so queued payload *objects* stay young (module
#: docstring); 8 to 128 measure alike, so this is not a tuning point.
TRAIN_MAX_PAYLOADS = 32

#: Receiver read chunk.
_READ_CHUNK = 1 << 16


class HandshakeError(ConnectionError):
    """Peer failed mutual authentication (wrong secret, bad magic, ...)."""


def _tag(secret: bytes, role: bytes, nonce: bytes, node_id: int) -> bytes:
    return hmac.new(
        secret, role + nonce + _ID.pack(node_id), hashlib.sha256
    ).digest()


class TransportStats:
    """Counters for tests and the cluster runner's report.

    A *frame* is a wire frame — one train; a *payload* is one message
    handed to ``send`` or to a handler.
    """

    def __init__(self) -> None:
        #: Trains written to a peer, and their bytes (headers included).
        self.frames_sent = 0
        self.bytes_sent = 0
        #: Payloads those trains carried.
        self.payloads_sent = 0
        #: Trains decoded from peers.
        self.frames_received = 0
        #: Payloads dispatched, loopback sends included.
        self.payloads_received = 0
        #: Payloads never queued or never encoded: unknown destination,
        #: unpicklable, or alone above ``max_frame``.
        self.frames_dropped = 0
        self.connects = 0
        self.reconnects = 0
        self.connect_failures = 0
        self.stream_errors = 0
        self.handshake_failures = 0
        self.handler_errors = 0
        #: The first handler exception, named with its payload type and
        #: message (``None``: no handler raised).
        self.first_handler_error: Optional[str] = None
        #: Payloads evicted from full per-peer outbound backlogs.
        self.queue_dropped = 0
        #: Payloads discarded by injected link faults (chaos harness).
        self.fault_dropped = 0


class _Backlog:
    """What one peer is still owed: sealed trains, then the open one."""

    __slots__ = ("sealed", "open", "depth", "ready")

    def __init__(self) -> None:
        #: Encoded trains, oldest first: ``(frame, payloads carried)``.
        self.sealed: Deque[Tuple[bytes, int]] = deque()
        #: Payload objects of the train still accepting sends.
        self.open: Deque[Any] = deque()
        #: Payloads in ``sealed`` plus ``open`` — what the bound counts.
        self.depth = 0
        #: Set by ``send``; the peer's sender task sleeps on it.
        self.ready = asyncio.Event()


class TcpTransport:
    """Real-socket transport for one node (see module docstring)."""

    def __init__(
        self,
        node_id: int,
        secret: bytes,
        clock: Optional[RealTimeClock] = None,
        host: str = "127.0.0.1",
        max_frame: int = MAX_FRAME_BYTES,
        max_queue: int = OUTBOUND_QUEUE_PAYLOADS,
        reconnect_initial: float = RECONNECT_INITIAL,
        reconnect_cap: float = RECONNECT_CAP,
    ) -> None:
        self.node_id = node_id
        self.secret = secret
        self.clock = clock if clock is not None else RealTimeClock()
        self.host = host
        self.port: Optional[int] = None
        self.max_frame = max_frame
        self.max_queue = max_queue
        self.reconnect_initial = reconnect_initial
        self.reconnect_cap = reconnect_cap
        self.stats = TransportStats()
        self._handlers: Dict[Type[Any], Callable[[int, Any], None]] = {}
        self._peers: Dict[int, Tuple[str, int]] = {}
        self._queues: Dict[int, _Backlog] = {}
        self._sender_tasks: Dict[int, asyncio.Task] = {}
        self._receiver_tasks: set = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._closed = False
        #: Per-peer payloads evicted on backlog overflow (observability).
        self.dropped_by_peer: Dict[int, int] = {}
        #: Per-peer current reconnect backoff (tests/observability).
        self.backoff_by_peer: Dict[int, float] = {}
        #: Injected egress shaping per destination (chaos harness):
        #: dst -> (block, drop_probability, extra_delay_seconds).
        self._link_faults: Dict[int, Tuple[bool, float, float]] = {}
        #: Deterministic per-node RNG for probabilistic frame drops, so a
        #: chaos run's drop pattern is reproducible for a given topology.
        self._fault_rng = random.Random(node_id * 7919 + 17)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, port: int = 0) -> int:
        """Bind the acceptor; returns the actual listening port."""
        self._server = await asyncio.start_server(
            self._accept, host=self.host, port=port
        )
        collector.hold()  # bound: given back by close(), once
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    def connect(self, peers: Dict[int, Tuple[str, int]]) -> None:
        """Learn peer addresses and start one sender task per peer.

        May be called again to add peers; existing peers are untouched.
        """
        loop = self.clock.loop
        for dst, address in peers.items():
            if dst == self.node_id or dst in self._queues:
                self._peers.setdefault(dst, address)
                continue
            self._peers[dst] = address
            self._queues[dst] = _Backlog()
            self._sender_tasks[dst] = loop.create_task(self._sender(dst))

    async def close(self) -> None:
        """Stop accepting, drop every connection, cancel all tasks."""
        self._closed = True
        server, self._server = self._server, None
        if server is not None:
            collector.release()
            server.close()
            await server.wait_closed()
        for task in list(self._sender_tasks.values()):
            task.cancel()
        for task in list(self._receiver_tasks):
            task.cancel()
        pending = [
            *self._sender_tasks.values(),
            *self._receiver_tasks,
        ]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._sender_tasks.clear()
        self._receiver_tasks.clear()

    # ------------------------------------------------------------------
    # Transport contract
    # ------------------------------------------------------------------
    def on(
        self, message_type: Type[Any], handler: Callable[[int, Any], None]
    ) -> None:
        self._handlers[message_type] = handler

    def send(
        self,
        dst: int,
        payload: Any,
        size: int = 256,
        recv_cost: Optional[float] = None,
        send_cost: float = 0.0,
    ) -> None:
        """Fire-and-forget: join ``dst``'s open train, ship from the
        sender task.

        The modelled ``size``/``recv_cost``/``send_cost`` are ignored —
        real bytes and cycles are spent for real.
        """
        if self._closed:
            return
        if dst == self.node_id:
            # Loopback stays asynchronous (like the simulator's loopback
            # path): the handler runs on a fresh loop iteration, never
            # reentrantly inside the caller.
            self.clock.loop.call_soon(self._dispatch, dst, payload)
            return
        backlog = self._queues.get(dst)
        if backlog is None:
            # Unknown destination: silently dropped, the asynchronous
            # network has no failure notifications.
            self.stats.frames_dropped += 1
            return
        if 0 < self.max_queue <= backlog.depth:
            # Bounded backlog: evict the oldest entry (message loss the
            # protocols already tolerate) rather than grow without limit
            # against a dead peer.
            if backlog.sealed:
                evicted = backlog.sealed.popleft()[1]
            else:
                backlog.open.popleft()
                evicted = 1
            backlog.depth -= evicted
            self.stats.queue_dropped += evicted
            self.dropped_by_peer[dst] = (
                self.dropped_by_peer.get(dst, 0) + evicted
            )
        backlog.open.append(payload)
        backlog.depth += 1
        if len(backlog.open) >= TRAIN_MAX_PAYLOADS:
            self._seal(dst, backlog)
        backlog.ready.set()

    def _seal(self, dst: int, backlog: _Backlog) -> None:
        """Close ``dst``'s open train: shape it, encode it, queue the bytes.

        Block/drop link faults act here, per payload and in send order;
        after this the payload objects are released.
        """
        train = tuple(backlog.open)
        backlog.open.clear()
        backlog.depth -= len(train)
        fault = self._link_faults.get(dst)
        if fault is not None:
            block, drop, _delay = fault
            if block or drop > 0.0:
                # Partition / probabilistic loss: discard like the
                # simulator Network drops partitioned messages.
                draw = self._fault_rng.random
                kept = (
                    () if block else tuple(p for p in train if draw() >= drop)
                )
                self.stats.fault_dropped += len(train) - len(kept)
                train = kept
        for frame in self._encode(train):
            backlog.sealed.append(frame)
            backlog.depth += frame[1]

    def _encode(self, train: tuple) -> List[Tuple[bytes, int]]:
        """``train`` as wire frames: one, unless a payload cannot be encoded.

        Encoding runs inside ``send`` or the sender task on behalf of up
        to 32 unrelated callers, so no failure may escape: a train that
        does not encode is retried payload by payload and only the
        offenders (unpicklable, or alone above ``max_frame``) are dropped.
        """
        if not train:
            return []
        try:
            return [(encode_frame(train, self.max_frame), len(train))]
        except Exception:
            if len(train) > 1:
                return [
                    frame
                    for payload in train
                    for frame in self._encode((payload,))
                ]
            self.stats.frames_dropped += 1
            return []

    def broadcast(
        self,
        targets: Sequence[int],
        payload: Any,
        size: int = 256,
        recv_cost: Optional[float] = None,
        send_cost: float = 0.0,
    ) -> None:
        """Encode ``payload`` once and put it on every target's train.

        Each train then copies the bytes instead of pickling the payload
        again, the receivers decode the payload itself
        (:class:`~repro.transport.framing.Encoded`), and what waits in
        the backlogs is ``bytes``, not the object graph.  A loopback
        target gets the object.  A payload that does not pickle goes
        out as it is: each peer's train then drops and counts it, as
        for ``send`` (and one alone above ``max_frame``).
        """
        if self._closed:
            return
        try:
            shared: Any = Encoded(payload)
        except Exception:
            shared = payload
        # Class-level send on purpose: like Node.broadcast (which goes
        # straight to Network.broadcast), a raw broadcast must not
        # re-enter an installed egress tap via the shadowed self.send.
        node_id = self.node_id
        for dst in targets:
            TcpTransport.send(
                self, dst, payload if dst == node_id else shared,
                size=size, recv_cost=recv_cost,
            )

    def charge(self, cost: float) -> None:
        """Modelled CPU is a no-op here: the work burned real cycles."""

    def set_timer(self, delay: float, fn: Callable[..., Any], *args: Any):
        return self.clock.schedule(delay, self._fire_timer, fn, args)

    def _fire_timer(self, fn: Callable[..., Any], args: tuple) -> None:
        if self.alive:
            fn(*args)

    @property
    def alive(self) -> bool:
        return not self._closed

    # ------------------------------------------------------------------
    # Egress taps (same shadowing contract as the simulator Node)
    # ------------------------------------------------------------------
    def install_egress_tap(self, tap: Any) -> None:
        tap.bind(
            TcpTransport.send.__get__(self),
            TcpTransport.broadcast.__get__(self),
        )
        self.send = tap.send            # type: ignore[method-assign]
        self.broadcast = tap.broadcast  # type: ignore[method-assign]

    def remove_egress_tap(self) -> None:
        self.__dict__.pop("send", None)
        self.__dict__.pop("broadcast", None)

    # ------------------------------------------------------------------
    # Outbound: per-peer sender with reconnect/backoff
    # ------------------------------------------------------------------
    async def _dial(self, dst: int) -> asyncio.StreamWriter:
        host, port = self._peers[dst]
        reader, writer = await asyncio.open_connection(host, port)
        try:
            nonce_d = os.urandom(_NONCE_BYTES)
            writer.write(_MAGIC + _ID.pack(self.node_id) + nonce_d)
            await writer.drain()
            reply = await reader.readexactly(
                len(_MAGIC) + _ID.size + _NONCE_BYTES + _TAG_BYTES
            )
            if reply[: len(_MAGIC)] != _MAGIC:
                raise HandshakeError(f"peer {dst}: bad magic")
            offset = len(_MAGIC)
            (acceptor_id,) = _ID.unpack_from(reply, offset)
            offset += _ID.size
            nonce_a = reply[offset : offset + _NONCE_BYTES]
            tag_a = reply[offset + _NONCE_BYTES :]
            expected = _tag(self.secret, b"accept", nonce_d, acceptor_id)
            if acceptor_id != dst or not hmac.compare_digest(tag_a, expected):
                raise HandshakeError(f"peer {dst}: acceptor failed auth")
            writer.write(_tag(self.secret, b"dial", nonce_a, self.node_id))
            await writer.drain()
        except BaseException:
            writer.close()
            raise
        return writer

    async def _sender(self, dst: int) -> None:
        backlog = self._queues[dst]
        backoff = self.reconnect_initial
        self.backoff_by_peer[dst] = backoff
        writer: Optional[asyncio.StreamWriter] = None
        connected_once = False
        try:
            while not self._closed:
                if writer is None:
                    try:
                        writer = await self._dial(dst)
                    except (OSError, asyncio.IncompleteReadError) as exc:
                        if isinstance(exc, HandshakeError):
                            self.stats.handshake_failures += 1
                        self.stats.connect_failures += 1
                        await asyncio.sleep(backoff)
                        backoff = min(backoff * 2, self.reconnect_cap)
                        self.backoff_by_peer[dst] = backoff
                        continue
                    self.stats.connects += 1
                    if connected_once:
                        self.stats.reconnects += 1
                    connected_once = True
                    backoff = self.reconnect_initial
                    self.backoff_by_peer[dst] = backoff
                while not backlog.depth:
                    backlog.ready.clear()
                    await backlog.ready.wait()
                if backlog.open:
                    self._seal(dst, backlog)
                # One flush ships the trains sealed by now; what is sent
                # while it sleeps or drains rides the next one.
                due = len(backlog.sealed)
                fault = self._link_faults.get(dst)
                if fault is not None and fault[2] > 0.0 and due:
                    # Added latency, once per flush: the link is late,
                    # not throttled to one frame per ``delay``.
                    await asyncio.sleep(fault[2])
                while due and backlog.sealed:
                    due -= 1
                    frame, carried = backlog.sealed.popleft()
                    backlog.depth -= carried
                    try:
                        writer.write(frame)
                        await writer.drain()
                    except (OSError, ConnectionError):
                        # This train is lost — asynchronous-network
                        # semantics; the protocols tolerate message loss
                        # to faulty peers.  The rest of the backlog waits
                        # for the redial.
                        self.stats.stream_errors += 1
                        writer.close()
                        writer = None
                        break
                    self.stats.frames_sent += 1
                    self.stats.payloads_sent += carried
                    self.stats.bytes_sent += len(frame)
        finally:
            if writer is not None:
                writer.close()

    # ------------------------------------------------------------------
    # Link-fault injection (chaos harness)
    # ------------------------------------------------------------------
    def set_link_fault(
        self, dst: int, block: bool = False, drop: float = 0.0, delay: float = 0.0
    ) -> None:
        """Shape egress toward ``dst``: drop all (partition), drop a
        fraction, or add fixed delay.  Block/drop decide per payload when
        its train is sealed (one RNG draw per payload, in send order);
        delay holds each flush of the sender task back once.  Both act
        after queueing, so the surviving payloads keep their order."""
        self._link_faults[dst] = (block, drop, delay)

    def clear_link_fault(self, dst: int) -> None:
        self._link_faults.pop(dst, None)

    def clear_link_faults(self) -> None:
        self._link_faults.clear()

    def queue_depth(self, dst: int) -> int:
        """Payloads queued for ``dst`` and not yet handed to the socket."""
        backlog = self._queues.get(dst)
        return 0 if backlog is None else backlog.depth

    # ------------------------------------------------------------------
    # Inbound: acceptor, handshake, frame pump
    # ------------------------------------------------------------------
    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._receiver_tasks.add(task)
            task.add_done_callback(self._receiver_tasks.discard)
        try:
            src = await self._accept_handshake(reader, writer)
        except asyncio.CancelledError:
            # Shutdown mid-handshake: exit cleanly (asyncio.streams
            # inspects the client task with ``task.exception()``, which
            # would re-raise an escaping cancellation into the loop's
            # exception handler).
            writer.close()
            return
        except (
            HandshakeError,
            OSError,
            asyncio.IncompleteReadError,
        ):
            self.stats.handshake_failures += 1
            writer.close()
            return
        decoder = FrameDecoder(self.max_frame)
        try:
            while not self._closed:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                for train in decoder.feed(data):
                    if train.__class__ is not tuple:
                        raise FrameError(
                            f"frame body is a {type(train).__name__}, "
                            "not a train"
                        )
                    self.stats.frames_received += 1
                    for payload in train:
                        self._dispatch(src, payload)
        except FrameError:
            # Oversized/corrupt/non-train frame: the stream cannot be
            # trusted further, drop the connection (the peer's sender
            # will redial).
            self.stats.stream_errors += 1
        except (OSError, ConnectionError):
            self.stats.stream_errors += 1
        except asyncio.CancelledError:
            pass  # close() cancelled us; same rationale as above
        finally:
            writer.close()

    async def _accept_handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> int:
        hello = await reader.readexactly(
            len(_MAGIC) + _ID.size + _NONCE_BYTES
        )
        if hello[: len(_MAGIC)] != _MAGIC:
            raise HandshakeError("bad magic")
        (dialer_id,) = _ID.unpack_from(hello, len(_MAGIC))
        nonce_d = hello[len(_MAGIC) + _ID.size :]
        nonce_a = os.urandom(_NONCE_BYTES)
        writer.write(
            _MAGIC
            + _ID.pack(self.node_id)
            + nonce_a
            + _tag(self.secret, b"accept", nonce_d, self.node_id)
        )
        await writer.drain()
        tag_d = await reader.readexactly(_TAG_BYTES)
        expected = _tag(self.secret, b"dial", nonce_a, dialer_id)
        if not hmac.compare_digest(tag_d, expected):
            raise HandshakeError(f"dialer {dialer_id} failed auth")
        return dialer_id

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, src: int, payload: Any) -> None:
        if self._closed:
            return
        self.stats.payloads_received += 1
        handler = self._handlers.get(payload.__class__)
        if handler is None:
            return  # unregistered type: ignored, like Node.handle_unknown
        try:
            handler(src, payload)
        except Exception as exc:
            # A handler bug must not kill the receiver task (and with it
            # the rest of this train and every future frame on the
            # stream); count it, keep the first, and continue.
            stats = self.stats
            stats.handler_errors += 1
            if stats.first_handler_error is None:
                stats.first_handler_error = (
                    f"{exc.__class__.__name__} in the "
                    f"{payload.__class__.__name__} handler: {exc}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpTransport id={self.node_id} {self.host}:{self.port} "
            f"peers={sorted(self._peers)}>"
        )

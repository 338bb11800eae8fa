"""TcpTransport failure paths: refusal, reconnect, framing, handshake.

No pytest-asyncio in the environment, so each test drives its own event
loop through ``asyncio.run``.  All sockets bind 127.0.0.1 port 0.
"""

from __future__ import annotations

import asyncio
import os
import random
import socket
import struct
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

import pytest

from repro.transport.framing import Encoded, encode_frame
from repro.transport.tcp import (
    _MAGIC,
    _NONCE_BYTES,
    _TAG_BYTES,
    TRAIN_MAX_PAYLOADS,
    _tag,
    TcpTransport,
)

SECRET = b"test-cluster-secret"


class Ping:
    """Minimal wire payload with stable equality."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __reduce__(self):
        return (Ping, (self.value,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ping) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("Ping", self.value))


async def wait_for(predicate, timeout: float = 5.0, interval: float = 0.01):
    """Poll until *predicate* is truthy; fail the test on timeout."""
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        if predicate():
            return
        if asyncio.get_running_loop().time() > deadline:
            pytest.fail("condition not reached within timeout")
        await asyncio.sleep(interval)


async def make_pair(
    **kwargs,
) -> Tuple[TcpTransport, TcpTransport]:
    """Two connected transports (ids 0 and 1) on fresh ports."""
    a = TcpTransport(0, SECRET, **kwargs.get("a", {}))
    b = TcpTransport(1, SECRET, **kwargs.get("b", {}))
    pa, pb = await a.start(), await b.start()
    peers = {0: ("127.0.0.1", pa), 1: ("127.0.0.1", pb)}
    a.connect(peers)
    b.connect(peers)
    return a, b


def collect(transport: TcpTransport) -> List[Tuple[int, Any]]:
    inbox: List[Tuple[int, Any]] = []
    transport.on(Ping, lambda src, msg: inbox.append((src, msg)))
    return inbox


def free_port() -> int:
    """A port that was just free (and is closed again) — dialing it
    before anything rebinds gets ECONNREFUSED."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ---------------------------------------------------------------------------
# Connection refusal and late peer start
# ---------------------------------------------------------------------------
def test_connect_refused_then_peer_appears():
    async def scenario():
        port = free_port()
        a = TcpTransport(0, SECRET)
        await a.start()
        a.connect({1: ("127.0.0.1", port)})
        a.send(1, Ping("early"))  # queued while the peer is down
        await wait_for(lambda: a.stats.connect_failures >= 2)

        b = TcpTransport(1, SECRET)
        await b.start(port)  # the peer finally boots on that port
        inbox = collect(b)
        await wait_for(lambda: inbox)
        assert inbox == [(0, Ping("early"))]
        assert a.stats.connects == 1
        assert a.stats.reconnects == 0
        await a.close()
        await b.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Mid-stream disconnect: frames lost, sender redials with backoff
# ---------------------------------------------------------------------------
def test_disconnect_reconnect_and_redelivery():
    async def scenario():
        a, b = await make_pair()
        inbox = collect(b)
        a.send(1, Ping(0))
        await wait_for(lambda: inbox)

        # Kill B's inbound connection out from under A.
        for task in list(b._receiver_tasks):
            task.cancel()
        await asyncio.sleep(0)

        # Keep sending until A notices the dead stream and redials.
        seq = 1
        while a.stats.reconnects == 0:
            a.send(1, Ping(seq))
            seq += 1
            await asyncio.sleep(0.02)
            if seq > 500:
                pytest.fail("sender never reconnected")
        assert a.stats.stream_errors >= 1

        # Post-reconnect traffic flows again (earlier frames may be lost
        # — asynchronous-network semantics, no retransmission).
        a.send(1, Ping("after"))
        await wait_for(lambda: (0, Ping("after")) in inbox)
        await a.close()
        await b.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Oversized frame: receiver drops the stream, sender recovers
# ---------------------------------------------------------------------------
def test_oversized_frame_drops_connection_then_recovers():
    async def scenario():
        a, b = await make_pair(b={"max_frame": 1024})
        inbox = collect(b)
        a.send(1, Ping("x" * 4096))  # above B's cap, below A's
        await wait_for(lambda: b.stats.stream_errors >= 1)
        assert inbox == []

        # The first post-error frame may be consumed by the stale writer
        # and lost (no retransmission); keep sending until one lands.
        for _ in range(500):
            a.send(1, Ping("small"))
            await asyncio.sleep(0.02)
            if inbox:
                break
        assert inbox and inbox[0] == (0, Ping("small"))
        assert a.stats.reconnects >= 1
        await a.close()
        await b.close()

    asyncio.run(scenario())


def test_sender_side_cap_drops_before_wire():
    async def scenario():
        a, b = await make_pair(a={"max_frame": 512})
        inbox = collect(b)
        a.send(1, Ping("y" * 2048))
        # Encoding happens when the train is sealed — by the sender task,
        # once it has dialed — not inside ``send``.
        await wait_for(lambda: a.stats.frames_dropped)
        assert a.stats.frames_dropped == 1
        a.send(1, Ping("fits"))
        await wait_for(lambda: inbox)
        assert inbox == [(0, Ping("fits"))]
        await a.close()
        await b.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Truncated frame then EOF: nothing dispatched, no crash
# ---------------------------------------------------------------------------
def test_truncated_frame_is_not_dispatched():
    async def scenario():
        b = TcpTransport(1, SECRET)
        port = await b.start()
        inbox = collect(b)

        # Hand-rolled dialer: real handshake, then half a frame and EOF.
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        import os as _os

        nonce_d = _os.urandom(_NONCE_BYTES)
        writer.write(_MAGIC + struct.pack(">I", 7) + nonce_d)
        await writer.drain()
        reply = await reader.readexactly(
            len(_MAGIC) + 4 + _NONCE_BYTES + _TAG_BYTES
        )
        nonce_a = reply[len(_MAGIC) + 4 : len(_MAGIC) + 4 + _NONCE_BYTES]
        writer.write(_tag(SECRET, b"dial", nonce_a, 7))
        await writer.drain()

        from repro.transport.framing import encode_frame

        frame = encode_frame(Ping("never-arrives"))
        writer.write(frame[: len(frame) // 2])
        await writer.drain()
        writer.close()
        await asyncio.sleep(0.1)
        assert inbox == []
        assert b.stats.frames_received == 0
        await b.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Handshake authentication
# ---------------------------------------------------------------------------
def test_wrong_secret_is_rejected_both_sides():
    async def scenario():
        a = TcpTransport(0, b"secret-one")
        b = TcpTransport(1, b"secret-two")
        await a.start()
        port = await b.start()
        inbox = collect(b)
        a.connect({1: ("127.0.0.1", port)})
        a.send(1, Ping("stolen"))
        await wait_for(
            lambda: a.stats.handshake_failures >= 2
            and b.stats.handshake_failures >= 2
        )
        assert a.stats.connects == 0
        assert inbox == []
        await a.close()
        await b.close()

    asyncio.run(scenario())


def test_bad_magic_is_rejected():
    async def scenario():
        b = TcpTransport(1, SECRET)
        port = await b.start()
        _, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"HTTP" + b"\x00" * (4 + _NONCE_BYTES))
        await writer.drain()
        await wait_for(lambda: b.stats.handshake_failures >= 1)
        writer.close()
        await b.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Local semantics: loopback, unknown destination, timers, taps
# ---------------------------------------------------------------------------
def test_loopback_is_asynchronous():
    async def scenario():
        a = TcpTransport(0, SECRET)
        inbox = collect(a)
        a.send(0, Ping("self"))
        assert inbox == []  # never reentrant in the caller's frame
        await wait_for(lambda: inbox)
        assert inbox == [(0, Ping("self"))]
        await a.close()

    asyncio.run(scenario())


def test_unknown_destination_silently_dropped():
    async def scenario():
        a = TcpTransport(0, SECRET)
        a.send(42, Ping("void"))
        assert a.stats.frames_dropped == 1
        await a.close()

    asyncio.run(scenario())


def test_timers_fire_cancel_and_gate_on_close():
    async def scenario():
        a = TcpTransport(0, SECRET)
        fired: List[str] = []
        a.set_timer(0.01, fired.append, "kept")
        cancelled = a.set_timer(0.01, fired.append, "cancelled")
        cancelled.cancel()
        late = a.set_timer(0.05, fired.append, "late")
        await asyncio.sleep(0.02)
        await a.close()  # late timer still pending; alive-gate holds it
        await asyncio.sleep(0.06)
        assert fired == ["kept"]
        assert late is not None

    asyncio.run(scenario())


class _DropTap:
    """Minimal egress tap honouring the Node/Transport bind contract."""

    def __init__(self) -> None:
        self.seen: List[Any] = []
        self._raw_send = None
        self._raw_broadcast = None

    def bind(self, raw_send, raw_broadcast) -> None:
        self._raw_send = raw_send
        self._raw_broadcast = raw_broadcast

    def send(self, dst, payload, size=256, recv_cost=None, send_cost=0.0):
        self.seen.append(("send", dst, payload))
        if payload == Ping("drop-me"):
            return
        self._raw_send(dst, payload, size=size, recv_cost=recv_cost)

    def broadcast(
        self, targets, payload, size=256, recv_cost=None, send_cost=0.0
    ):
        self.seen.append(("broadcast", tuple(targets), payload))
        self._raw_broadcast(targets, payload, size=size, recv_cost=recv_cost)


def test_egress_tap_intercepts_and_removal_restores():
    async def scenario():
        a, b = await make_pair()
        inbox = collect(b)
        tap = _DropTap()
        a.install_egress_tap(tap)

        a.send(1, Ping("drop-me"))
        a.broadcast([1], Ping("through"))
        await wait_for(lambda: inbox)
        assert inbox == [(0, Ping("through"))]
        assert ("send", 1, Ping("drop-me")) in tap.seen
        assert ("broadcast", (1,), Ping("through")) in tap.seen

        a.remove_egress_tap()
        a.send(1, Ping("untapped"))
        await wait_for(lambda: len(inbox) == 2)
        assert len(tap.seen) == 2  # tap saw nothing after removal
        await a.close()
        await b.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Bounded outbound queues: drop-oldest on overflow, per-peer counters
# ---------------------------------------------------------------------------
def test_outbound_queue_overflow_drops_oldest():
    async def scenario():
        port = free_port()  # nobody listening: the queue can only grow
        a = TcpTransport(0, SECRET, max_queue=8)
        await a.start()
        a.connect({1: ("127.0.0.1", port)})
        for i in range(20):
            a.send(1, Ping(i))
        assert a.stats.queue_dropped == 12
        assert a.dropped_by_peer[1] == 12
        assert a.queue_depth(1) <= 8

        # The survivors are the *newest* frames: once the peer appears,
        # the first delivery is not Ping(0).
        b = TcpTransport(1, SECRET)
        await b.start(port)
        inbox = collect(b)
        await wait_for(lambda: len(inbox) >= 8)
        assert [msg.value for _, msg in inbox[:8]] == list(range(12, 20))
        await a.close()
        await b.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Reconnect backoff: caps at reconnect_cap, resets after a success
# ---------------------------------------------------------------------------
def test_backoff_caps_then_resets_after_reconnect():
    async def scenario():
        port = free_port()
        a = TcpTransport(
            0, SECRET, reconnect_initial=0.01, reconnect_cap=0.08
        )
        await a.start()
        a.connect({1: ("127.0.0.1", port)})
        a.send(1, Ping("pending"))
        # 0.01 → 0.02 → 0.04 → 0.08 → 0.08 …: the cap holds.
        await wait_for(lambda: a.backoff_by_peer.get(1) == 0.08)
        failures = a.stats.connect_failures
        await asyncio.sleep(0.25)
        assert a.backoff_by_peer[1] == 0.08
        assert a.stats.connect_failures > failures

        b = TcpTransport(1, SECRET)
        await b.start(port)
        inbox = collect(b)
        await wait_for(lambda: inbox)
        # A successful (re)connect resets the backoff to the initial
        # value, so the *next* outage is probed quickly again.
        assert a.backoff_by_peer[1] == 0.01
        await a.close()
        await b.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Queued frames survive a peer restart (only in-flight frames are lost)
# ---------------------------------------------------------------------------
def test_queued_frames_survive_peer_restart():
    async def scenario():
        a, b = await make_pair(a={"reconnect_initial": 0.01})
        inbox = collect(b)
        a.send(1, Ping("before"))
        await wait_for(lambda: inbox)
        port = b.port

        # Peer crashes; probe until the sender notices the dead stream
        # and enters its redial loop (probes in flight are lost).
        await b.close()
        failures = a.stats.connect_failures
        probes = 0
        while a.stats.connect_failures <= failures:
            a.send(1, Ping("probe"))
            probes += 1
            await asyncio.sleep(0.02)
            if probes > 500:
                pytest.fail("sender never entered its redial loop")

        # Frames sent while the peer is down wait in the bounded queue
        # (the sender only dequeues after a successful dial).
        for i in range(10):
            a.send(1, Ping(i))
        assert a.queue_depth(1) >= 10

        # Peer restarts on the same port: the backlog drains in order;
        # only frames in flight at the crash moment were lost — the hole
        # the WAL catch-up path repairs at the protocol layer.
        b2 = TcpTransport(1, SECRET)
        await b2.start(port)
        inbox2 = collect(b2)
        await wait_for(
            lambda: [m.value for _, m in inbox2 if m.value != "probe"]
            == list(range(10))
        )
        await a.close()
        await b2.close()

    asyncio.run(scenario())


def test_handler_exception_does_not_kill_receiver():
    async def scenario():
        a, b = await make_pair()
        good: List[Any] = []

        def handler(src: int, msg: Ping) -> None:
            if msg.value == "boom":
                raise RuntimeError("handler bug")
            good.append(msg.value)

        b.on(Ping, handler)
        a.send(1, Ping("boom"))
        a.send(1, Ping("fine"))
        await wait_for(lambda: good)
        assert good == ["fine"]
        assert b.stats.handler_errors == 1
        await a.close()
        await b.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Payload trains: the wire unit is a tuple of payloads, at most
# TRAIN_MAX_PAYLOADS of them, one frame per peer per loop turn
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("burst", [1, 31, 32, 33, 256])
def test_burst_rides_ceil_k_over_32_trains_in_order(burst):
    async def scenario():
        a, b = await make_pair()
        inbox = collect(b)
        await wait_for(lambda: a.stats.connects == 1)
        for value in range(burst):
            a.send(1, Ping(value))  # one synchronous burst, no yield
        await wait_for(lambda: len(inbox) == burst)
        assert [msg.value for _, msg in inbox] == list(range(burst))
        trains = -(-burst // TRAIN_MAX_PAYLOADS)
        assert a.stats.frames_sent == trains
        assert a.stats.payloads_sent == burst
        assert b.stats.frames_received == trains
        assert b.stats.payloads_received == burst
        assert a.queue_depth(1) == 0
        await a.close()
        await b.close()

    asyncio.run(scenario())


def test_interleaved_sends_keep_each_peers_order():
    async def scenario():
        nodes = [TcpTransport(i, SECRET) for i in range(3)]
        peers = {n.node_id: ("127.0.0.1", await n.start()) for n in nodes}
        for node in nodes:
            node.connect(peers)
        a, b, c = nodes
        inbox_b, inbox_c = collect(b), collect(c)
        for value in range(100):
            a.send(1 + value % 2, Ping(value))
        await wait_for(lambda: len(inbox_b) + len(inbox_c) == 100)
        assert [msg.value for _, msg in inbox_b] == list(range(0, 100, 2))
        assert [msg.value for _, msg in inbox_c] == list(range(1, 100, 2))
        for node in nodes:
            await node.close()

    asyncio.run(scenario())


def test_drop_fault_draws_once_per_payload_in_send_order():
    async def scenario():
        a, b = await make_pair()
        inbox = collect(b)
        a.set_link_fault(1, drop=0.5)
        for value in range(100):
            a.send(1, Ping(value))
        # The reference: one draw per payload of the node's fault RNG.
        reference = random.Random(a.node_id * 7919 + 17)
        survivors = [v for v in range(100) if reference.random() >= 0.5]
        await wait_for(lambda: len(inbox) == len(survivors))
        assert [msg.value for _, msg in inbox] == survivors
        assert a.stats.fault_dropped == 100 - len(survivors)
        assert a.stats.payloads_sent == len(survivors)
        await a.close()
        await b.close()

    asyncio.run(scenario())


def test_block_fault_counts_every_payload():
    async def scenario():
        a, b = await make_pair()
        inbox = collect(b)
        a.set_link_fault(1, block=True)
        for value in range(40):
            a.send(1, Ping(value))
        await wait_for(lambda: a.stats.fault_dropped == 40)
        assert a.queue_depth(1) == 0
        assert a.stats.frames_sent == 0
        a.clear_link_fault(1)
        a.send(1, Ping("healed"))
        await wait_for(lambda: inbox)
        assert inbox == [(0, Ping("healed"))]
        await a.close()
        await b.close()

    asyncio.run(scenario())


def test_delay_fault_adds_latency_not_a_rate_limit():
    async def scenario():
        a, b = await make_pair()
        inbox = collect(b)
        await wait_for(lambda: a.stats.connects == 1)
        a.set_link_fault(1, delay=0.05)
        loop = asyncio.get_running_loop()
        began = loop.time()
        for value in range(100):
            a.send(1, Ping(value))
        await wait_for(lambda: len(inbox) == 100, interval=0.005)
        elapsed = loop.time() - began
        # One sleep per flush: 100 sends are 50 ms late, not 100 x 50 ms.
        assert 0.05 <= elapsed < 0.25
        assert [msg.value for _, msg in inbox] == list(range(100))
        await a.close()
        await b.close()

    asyncio.run(scenario())


def test_close_with_an_open_train_leaks_nothing():
    async def scenario():
        a, b = await make_pair()
        for value in range(5):
            a.send(1, Ping(value))
        assert a.queue_depth(1) == 5  # still objects, nothing sealed
        await a.close()
        await b.close()
        assert not a._sender_tasks and not a._receiver_tasks
        assert asyncio.all_tasks() == {asyncio.current_task()}

    asyncio.run(scenario())


class _Probe(Ping):
    """A Ping a weak reference can watch."""

    __slots__ = ("__weakref__",)


def test_payload_object_is_released_within_one_train_of_sends():
    """The collector argument of the module docstring, as a test: queued
    payload *objects* must not outlive TRAIN_MAX_PAYLOADS further sends,
    loop turn or not — the train is sealed to bytes inside ``send``."""

    async def scenario():
        port = free_port()  # nobody listening: nothing is ever flushed
        a = TcpTransport(0, SECRET)
        await a.start()
        a.connect({1: ("127.0.0.1", port)})
        probe = _Probe("watched")
        watcher = weakref.ref(probe)
        a.send(1, probe)
        del probe
        assert watcher() is not None  # riding the open train
        for value in range(TRAIN_MAX_PAYLOADS):
            a.send(1, Ping(value))
        assert watcher() is None
        assert a.queue_depth(1) == TRAIN_MAX_PAYLOADS + 1
        await a.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Decoders never trust bytes; senders never die
# ---------------------------------------------------------------------------
async def raw_dial(port: int, node_id: int) -> asyncio.StreamWriter:
    """Hand-rolled dialer: a real handshake, then the caller's bytes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    nonce_d = os.urandom(_NONCE_BYTES)
    writer.write(_MAGIC + struct.pack(">I", node_id) + nonce_d)
    await writer.drain()
    reply = await reader.readexactly(
        len(_MAGIC) + 4 + _NONCE_BYTES + _TAG_BYTES
    )
    nonce_a = reply[len(_MAGIC) + 4 : len(_MAGIC) + 4 + _NONCE_BYTES]
    writer.write(_tag(SECRET, b"dial", nonce_a, node_id))
    await writer.drain()
    return writer


def test_frame_that_is_not_a_train_drops_the_connection():
    async def scenario():
        b = TcpTransport(1, SECRET)
        port = await b.start()
        inbox = collect(b)
        writer = await raw_dial(port, 7)
        writer.write(encode_frame((Ping("in a train"),)))
        writer.write(encode_frame(Ping("bare")))  # well-formed, not a tuple
        writer.write(encode_frame((Ping("after"),)))
        await writer.drain()
        await wait_for(lambda: b.stats.stream_errors == 1)
        await wait_for(lambda: not b._receiver_tasks)  # connection dropped
        assert inbox == [(7, Ping("in a train"))]
        assert b.stats.frames_received == 1
        writer.close()
        await b.close()

    asyncio.run(scenario())


@pytest.mark.parametrize(
    "offender", [Ping(lambda: None), Ping("y" * 2048)],
    ids=["unpicklable", "oversized"],
)
def test_bad_payload_in_a_train_is_dropped_alone(offender):
    async def scenario():
        a, b = await make_pair(a={"max_frame": 512})
        inbox = collect(b)
        a.send(1, Ping("before"))
        a.send(1, offender)
        a.send(1, Ping("after"))
        await wait_for(lambda: len(inbox) == 2)
        assert [msg.value for _, msg in inbox] == ["before", "after"]
        assert a.stats.frames_dropped == 1
        assert a.stats.payloads_sent == 2
        # The sender task survived: the link still works.
        a.send(1, Ping("later"))
        await wait_for(lambda: len(inbox) == 3)
        assert not a._sender_tasks[1].done()
        await a.close()
        await b.close()

    asyncio.run(scenario())


def test_handler_exception_mid_train_spares_the_rest_of_the_train():
    async def scenario():
        a, b = await make_pair()
        good: List[Any] = []

        def handler(src: int, msg: Ping) -> None:
            if msg.value == "boom":
                raise RuntimeError("handler bug")
            good.append(msg.value)

        b.on(Ping, handler)
        for value in ("first", "boom", "last"):
            a.send(1, Ping(value))
        await wait_for(lambda: len(good) == 2)
        assert good == ["first", "last"]
        assert b.stats.handler_errors == 1
        assert b.stats.frames_received == 1  # all three rode one train
        await a.close()
        await b.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Broadcast: the payload is encoded once, whoever and however many the peers
# ---------------------------------------------------------------------------
class _Counted(Ping):
    """A Ping that counts how often it is pickled (class-wide)."""

    __slots__ = ()
    reduced = 0

    def __reduce__(self):
        _Counted.reduced += 1
        return (_Counted, (self.value,))


async def make_cluster(count: int, **kwargs) -> List[TcpTransport]:
    """``count`` fully connected transports; ``kwargs`` go to node 0."""
    nodes = [
        TcpTransport(i, SECRET, **(kwargs if i == 0 else {}))
        for i in range(count)
    ]
    peers = {n.node_id: ("127.0.0.1", await n.start()) for n in nodes}
    for node in nodes:
        node.connect(peers)
    return nodes


def collect_any(transport: TcpTransport, kind: type) -> List[Tuple[int, Any]]:
    inbox: List[Tuple[int, Any]] = []
    transport.on(kind, lambda src, msg: inbox.append((src, msg)))
    return inbox


def test_broadcast_pickles_its_payload_once_for_all_peers():
    async def scenario():
        nodes = await make_cluster(4)
        a = nodes[0]
        inboxes = [collect_any(node, _Counted) for node in nodes]
        stray = [collect_any(node, Encoded) for node in nodes]
        payload = _Counted(("batch", 7))
        _Counted.reduced = 0
        a.broadcast([0, 1, 2, 3], payload)
        await wait_for(lambda: all(inboxes))
        assert _Counted.reduced == 1  # not once per peer train
        # The loopback target got the object itself, asynchronously...
        assert inboxes[0] == [(0, payload)] and inboxes[0][0][1] is payload
        # ...every peer an equal payload of the payload's own class.
        for inbox in inboxes[1:]:
            assert inbox == [(0, payload)]
            assert type(inbox[0][1]) is _Counted
        assert not any(stray)  # no handler ever sees the wrapper
        assert a.stats.frames_sent == 3 and a.stats.payloads_sent == 3
        assert a.stats.frames_dropped == 0
        for node in nodes:
            await node.close()

    asyncio.run(scenario())


def test_broadcast_shares_trains_with_sends_in_order():
    async def scenario():
        nodes = await make_cluster(3)
        a = nodes[0]
        inboxes = [collect(node) for node in nodes[1:]]
        await wait_for(lambda: a.stats.connects == 2)
        a.send(1, Ping("before"))
        a.broadcast([1, 2], Ping("shared"))
        a.send(1, Ping("after"))
        await wait_for(lambda: len(inboxes[0]) == 3 and len(inboxes[1]) == 1)
        assert [m.value for _, m in inboxes[0]] == [
            "before", "shared", "after",
        ]
        assert [m.value for _, m in inboxes[1]] == ["shared"]
        assert a.stats.frames_sent == 2  # one train per peer
        for node in nodes:
            await node.close()

    asyncio.run(scenario())


@pytest.mark.parametrize(
    "offender", [Ping(lambda: None), Ping("y" * 2048)],
    ids=["unpicklable", "oversized"],
)
@pytest.mark.parametrize("tapped", [False, True], ids=["raw", "tapped"])
def test_bad_broadcast_payload_is_dropped_per_peer_without_raising(
    offender, tapped
):
    async def scenario():
        nodes = await make_cluster(4, max_frame=512)
        a = nodes[0]
        inboxes = [collect(node) for node in nodes]
        if tapped:
            tap = _DropTap()
            a.install_egress_tap(tap)
        a.broadcast([1, 2, 3], Ping("before"))
        a.broadcast([0, 1, 2, 3], offender)  # must not raise
        a.broadcast([1, 2, 3], Ping("after"))
        await wait_for(lambda: all(len(inbox) == 2 for inbox in inboxes[1:]))
        for inbox in inboxes[1:]:
            assert [msg.value for _, msg in inbox] == ["before", "after"]
        # Dropped and counted once per remote peer; loopback needs no
        # encoding, so the local handler still got the object.
        assert a.stats.frames_dropped == 3
        assert a.stats.payloads_sent == 6
        assert [msg for _, msg in inboxes[0]] == [offender]
        if tapped:
            assert [entry[0] for entry in tap.seen] == ["broadcast"] * 3
            assert tap.seen[1][2] is offender  # taps see objects, not bytes
        assert not any(task.done() for task in a._sender_tasks.values())
        for node in nodes:
            await node.close()

    asyncio.run(scenario())


def test_broadcast_under_block_and_drop_faults():
    """Link faults act per payload when a train is sealed; a pre-encoded
    payload is one payload like any other (one RNG draw, in send order)."""

    async def scenario():
        nodes = await make_cluster(4)
        a = nodes[0]
        inboxes = [collect(node) for node in nodes]
        await wait_for(lambda: a.stats.connects == 3)
        a.set_link_fault(1, block=True)
        a.set_link_fault(2, drop=0.5)
        for value in range(60):
            a.broadcast([1, 2, 3], Ping(value))
        reference = random.Random(a.node_id * 7919 + 17)
        survivors = [v for v in range(60) if reference.random() >= 0.5]
        await wait_for(
            lambda: len(inboxes[3]) == 60 and len(inboxes[2]) == len(survivors)
        )
        assert [msg.value for _, msg in inboxes[3]] == list(range(60))
        assert [msg.value for _, msg in inboxes[2]] == survivors
        assert inboxes[1] == []
        assert a.stats.fault_dropped == 60 + (60 - len(survivors))
        assert a.stats.frames_dropped == 0
        # The unpicklable case under a fault: still no raise, still counted
        # per peer that would have encoded it (the blocked peer's train is
        # emptied before encoding).
        a.clear_link_fault(2)
        a.broadcast([1, 2, 3], Ping(lambda: None))
        a.broadcast([1, 2, 3], Ping("tail"))
        await wait_for(lambda: len(inboxes[3]) == 61)
        await wait_for(lambda: len(inboxes[2]) == len(survivors) + 1)
        assert a.stats.frames_dropped == 2
        assert a.stats.fault_dropped == 60 + (60 - len(survivors)) + 2
        for node in nodes:
            await node.close()

    asyncio.run(scenario())


def test_queued_broadcast_payload_is_bytes_not_the_object():
    """What waits in a backlog for a dead peer is the encoded body: the
    payload's object graph is not kept alive by the transport."""

    async def scenario():
        port = free_port()  # nobody listening: nothing is ever flushed
        a = TcpTransport(0, SECRET)
        await a.start()
        a.connect({1: ("127.0.0.1", port), 2: ("127.0.0.1", port)})
        probe = _Probe("watched")
        watcher = weakref.ref(probe)
        a.broadcast([1, 2], probe)
        del probe
        assert watcher() is None
        assert a.queue_depth(1) == a.queue_depth(2) == 1
        await a.close()

    asyncio.run(scenario())

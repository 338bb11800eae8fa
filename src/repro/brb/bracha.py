"""Bracha's Byzantine reliable broadcast — the Astro I broadcast layer.

Implements Listing 5 of the paper (based on Bracha & Toueg [18], [19]):

1. **PREPARE** — the broadcaster sends the payload to all replicas.
2. **ECHO** — the first time a replica sees an identifier, it echoes the
   payload to all replicas.
3. **READY** — on a Byzantine quorum of matching ECHOes (or f+1 matching
   READYs, the amplification rule), a replica sends READY to all; it
   delivers after 2f+1 matching READYs, in FIFO order per origin.

ECHO and READY carry the full payload (as in Listing 5), giving the
protocol its O(N²·|a|) bandwidth — the reason Astro I trails Astro II in
WAN settings (§IV-A).  Links are MAC-authenticated; the network substrate
already prevents spoofing, and MAC verification CPU cost is charged per
message.  Bracha's protocol provides **totality**: once any correct
replica delivers, READY amplification drags every correct replica along.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..crypto import costs
from ..crypto.hashing import Digest
from ..transport.interface import Transport
from .interface import BroadcastLayer, DeliverFn
from .interface import _payload_digest, _payload_items
from .quorums import byzantine_quorum, max_faulty

__all__ = ["BrachaBroadcast", "BrbPrepare", "BrbEcho", "BrbReady"]


class BrbPrepare:
    __slots__ = ("seq", "payload", "size")

    def __init__(self, seq: int, payload: Any, size: int) -> None:
        self.seq = seq
        self.payload = payload
        self.size = size

    def __reduce__(self):
        return (BrbPrepare, (self.seq, self.payload, self.size))


class BrbEcho:
    __slots__ = ("origin", "seq", "payload", "size")

    def __init__(self, origin: int, seq: int, payload: Any, size: int) -> None:
        self.origin = origin
        self.seq = seq
        self.payload = payload
        self.size = size

    def __reduce__(self):
        return (BrbEcho, (self.origin, self.seq, self.payload, self.size))


class BrbReady:
    __slots__ = ("origin", "seq", "payload", "size")

    def __init__(self, origin: int, seq: int, payload: Any, size: int) -> None:
        self.origin = origin
        self.seq = seq
        self.payload = payload
        self.size = size

    def __reduce__(self):
        return (BrbReady, (self.origin, self.seq, self.payload, self.size))


class _Instance:
    """Per-identifier protocol state at one replica."""

    __slots__ = ("echo_sent", "ready_sent", "echoes", "readys", "delivered")

    def __init__(self) -> None:
        self.echo_sent = False
        self.ready_sent = False
        #: digest -> (payload, set of replicas that echoed it)
        self.echoes: Dict[Digest, Tuple[Any, Set[int]]] = {}
        self.readys: Dict[Digest, Tuple[Any, Set[int]]] = {}
        #: READY quorum reached (FIFO delivery may still wait).
        self.delivered = False


class BrachaBroadcast(BroadcastLayer):
    """Bracha BRB endpoint attached to one replica node.

    An instance retires at FIFO delivery once it has sent its ECHO; one
    delivered through READY amplification alone stays until the PREPARE
    it still echoes arrives.
    """

    provides_totality = True
    _instance_type = _Instance

    def __init__(
        self,
        node: Transport,
        peers: Sequence[int],
        deliver: DeliverFn,
        f: Optional[int] = None,
    ) -> None:
        super().__init__(deliver)
        self.node = node
        self.peers: List[int] = list(peers)
        if node.node_id not in self.peers:
            raise ValueError("broadcast endpoint must be a member of its peer set")
        self.n = len(self.peers)
        self.f = f if f is not None else max_faulty(self.n)
        self.echo_quorum = byzantine_quorum(self.n, self.f)
        self.ready_quorum = 2 * self.f + 1
        self.amplify_threshold = self.f + 1
        #: Peers minus ourselves, in peer order — the fan-out target list.
        self._others: List[int] = [p for p in self.peers if p != node.node_id]
        #: Out-of-order complete payloads awaiting FIFO drain.
        self._completed: Dict[int, Dict[int, Any]] = {}
        node.on(BrbPrepare, self._on_prepare)
        node.on(BrbEcho, self._on_echo)
        node.on(BrbReady, self._on_ready)

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def broadcast(self, seq: int, payload: Any, payload_bytes: int) -> None:
        """PREPARE phase: send the payload to all replicas (Listing 5 l.2)."""
        size = costs.HEADER_BYTES + payload_bytes
        message = BrbPrepare(seq, payload, size)
        cost = self._payload_recv_cost(size, payload)
        self.node.broadcast(
            self._others, message, size=size, recv_cost=cost,
            send_cost=costs.SEND_OVERHEAD,
        )
        # Local short-circuit: the broadcaster processes its own PREPARE.
        self._handle_prepare(self.node.node_id, message)

    def deliver_out_of_band(self, origin: int, seq: int, payload: Any) -> bool:
        """Also drains the FIFO successors the delivery unblocked — after
        the callback, so they reach it in order."""
        if not super().deliver_out_of_band(origin, seq, payload):
            return False
        pending = self._completed.get(origin)
        if pending:
            pending.pop(seq, None)
            self._advance(origin, pending)
        return True

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    @staticmethod
    def _payload_recv_cost(size: int, payload: Any) -> float:
        """CPU to receive+authenticate+hash a payload-carrying message."""
        return (
            costs.MESSAGE_OVERHEAD
            + costs.PER_BYTE_CPU * size
            + costs.MAC_VERIFY
            + costs.HASH_PER_PAYMENT * _payload_items(payload)
        )

    @staticmethod
    def _control_recv_cost(size: int) -> float:
        """CPU to receive an ECHO/READY (payload already hashed once)."""
        return costs.MESSAGE_OVERHEAD + costs.PER_BYTE_CPU * size + costs.MAC_VERIFY

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _on_prepare(self, src: int, message: BrbPrepare) -> None:
        self._handle_prepare(src, message)

    def _handle_prepare(self, src: int, message: BrbPrepare) -> None:
        # The origin of a PREPARE is its (authenticated) sender, so a
        # Byzantine replica cannot broadcast under another identity.
        key = (src, message.seq)
        instance = self._instance(key)
        if instance is None or instance.echo_sent:
            return
        instance.echo_sent = True
        echo = BrbEcho(src, message.seq, message.payload, message.size)
        self._send_and_self_apply(echo, self._apply_echo)
        if instance.delivered and key in self.delivered:
            self._instances.pop(key, None)  # the late ECHO was all it owed

    def _on_echo(self, src: int, message: BrbEcho) -> None:
        self._apply_echo(src, message)

    def _apply_echo(self, src: int, message: BrbEcho) -> None:
        instance = self._instance((message.origin, message.seq))
        if instance is None or instance.ready_sent:
            # Quorum already reached: late ECHOes can never change our
            # vote, so skip the digest lookup and vote bookkeeping.
            return
        payload_digest = _payload_digest(message.payload)
        entry = instance.echoes.get(payload_digest)
        if entry is None:
            entry = (message.payload, set())
            instance.echoes[payload_digest] = entry
        voters = entry[1]
        voters.add(src)
        if len(voters) >= self.echo_quorum:
            instance.ready_sent = True
            ready = BrbReady(message.origin, message.seq, message.payload, message.size)
            self._send_and_self_apply(ready, self._apply_ready)

    def _on_ready(self, src: int, message: BrbReady) -> None:
        self._apply_ready(src, message)

    def _apply_ready(self, src: int, message: BrbReady) -> None:
        instance = self._instance((message.origin, message.seq))
        if instance is None or (instance.delivered and instance.ready_sent):
            # Both READY-driven transitions already happened; late READYs
            # are pure noise for this instance.
            return
        payload_digest = _payload_digest(message.payload)
        entry = instance.readys.get(payload_digest)
        if entry is None:
            entry = (message.payload, set())
            instance.readys[payload_digest] = entry
        entry[1].add(src)
        count = len(entry[1])
        if count >= self.amplify_threshold and not instance.ready_sent:
            # Amplification: join the READY wave without having seen the
            # echo quorum ourselves (Listing 5 l.26-29).  This is what
            # gives Bracha its totality property.
            instance.ready_sent = True
            ready = BrbReady(message.origin, message.seq, message.payload, message.size)
            self._send_and_self_apply(ready, self._apply_ready)
        if count >= self.ready_quorum and not instance.delivered:
            instance.delivered = True
            pending = self._completed.setdefault(message.origin, {})
            pending[message.seq] = message.payload
            self._advance(message.origin, pending)

    # ------------------------------------------------------------------
    # Delivery (FIFO per origin, Listing 5 l.32)
    # ------------------------------------------------------------------
    def _advance(self, origin: int, pending: Dict[int, Any]) -> None:
        """Deliver what ``pending`` holds right past the origin's frontier."""
        delivered, instances = self.delivered, self._instances
        while True:
            seq = delivered.front.get(origin, 0) + 1
            if seq not in pending:
                return
            payload = pending.pop(seq)
            delivered.add(origin, seq)
            key = (origin, seq)
            if instances[key].echo_sent:
                del instances[key]
            self._delivered_count += 1
            self.deliver_fn(origin, seq, payload)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _send_and_self_apply(
        self, message: Any, apply: Callable[[int, Any], None]
    ) -> None:
        """Send to all peers and count our own vote locally.

        Real implementations do not loop a message through their own
        network stack; applying locally also keeps event counts down.
        """
        cost = self._control_recv_cost(message.size)
        self.node.broadcast(
            self._others, message, size=message.size, recv_cost=cost,
            send_cost=costs.SEND_OVERHEAD,
        )
        apply(self.node.node_id, message)

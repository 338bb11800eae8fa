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

Across reconfigurations this is DBRB (Appendix A-C): every message
carries the number of the view it was sent in, and
:meth:`BrachaBroadcast.install_view` restarts the undelivered instances in
the new view and re-emits the endpoint's own undelivered broadcasts, so a
broadcast started in view v still delivers at every correct member of the
final installed view.  Stale-view traffic and anything sent by a
non-member are dropped on arrival.
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
    __slots__ = ("seq", "payload", "size", "view")

    def __init__(
        self, seq: int, payload: Any, size: int, view: int = 0
    ) -> None:
        self.seq = seq
        self.payload = payload
        self.size = size
        self.view = view

    def __reduce__(self):
        return (BrbPrepare, (self.seq, self.payload, self.size, self.view))


class BrbEcho:
    __slots__ = ("origin", "seq", "payload", "size", "view")

    def __init__(
        self, origin: int, seq: int, payload: Any, size: int, view: int = 0
    ) -> None:
        self.origin = origin
        self.seq = seq
        self.payload = payload
        self.size = size
        self.view = view

    def __reduce__(self):
        return (type(self), (self.origin, self.seq, self.payload, self.size,
                             self.view))


class BrbReady(BrbEcho):
    """An ECHO's fields; its type alone routes it to the READY handler."""

    __slots__ = ()


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

    ``peers`` are the members of view 0.  An endpoint outside its view
    (a joiner) may exist, but cannot broadcast.

    An instance retires at FIFO delivery once it has sent its ECHO; one
    delivered through READY amplification alone stays until the PREPARE
    it still echoes arrives.
    """

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
        #: Own broadcasts not delivered yet: seq -> (payload, size).
        self._own: Dict[int, Tuple[Any, int]] = {}
        #: Out-of-order complete payloads awaiting FIFO drain.
        self._completed: Dict[int, Dict[int, Any]] = {}
        self._adopt(0, list(peers), f)
        node.on(BrbPrepare, self._on_prepare)
        node.on(BrbEcho, self._on_echo)
        node.on(BrbReady, self._on_ready)

    def _adopt(self, view: int, peers: List[int], f: Optional[int]) -> None:
        #: Number of the installed view; messages of any other are dropped.
        self.view = view
        self.peers = peers
        self._members = frozenset(peers)
        self.n = len(peers)
        self.f = f if f is not None else max_faulty(self.n)
        self.echo_quorum = byzantine_quorum(self.n, self.f)
        self.ready_quorum = 2 * self.f + 1
        self.amplify_threshold = self.f + 1
        #: Peers minus ourselves, in peer order — the fan-out target list.
        self._others = [p for p in peers if p != self.node.node_id]

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def broadcast(self, seq: int, payload: Any, payload_bytes: int) -> None:
        """PREPARE phase: send the payload to all replicas (Listing 5 l.2)."""
        if self.node.node_id not in self._members:
            raise ValueError("only a member of the installed view can broadcast")
        size = costs.HEADER_BYTES + payload_bytes
        self._own[seq] = (payload, size)
        self._prepare(seq, payload, size)

    def install_view(self, view: Any) -> None:
        """Adopt a newer view (anything with ``number`` and ``members``).

        Undelivered instances restart in it, except those already
        complete and waiting on FIFO; our own undelivered broadcasts are
        re-emitted.  An older or equal view number is ignored.
        """
        if view.number <= self.view:
            return
        self._adopt(view.number, sorted(view.members), None)
        delivered = self.delivered
        self._instances = {
            key: instance for key, instance in self._instances.items()
            if instance.delivered and key not in delivered
        }
        self.retry_pending()

    def retry_pending(self) -> None:
        """Re-emit our undelivered broadcasts in the installed view — on a
        view change, or when connectivity returns.  Idempotent: a
        delivered broadcast is never re-sent."""
        me = self.node.node_id
        for seq, (payload, size) in list(self._own.items()):
            if (me, seq) in self.delivered:
                del self._own[seq]
            else:
                self._prepare(seq, payload, size)

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

    def _prepare(self, seq: int, payload: Any, size: int) -> None:
        message = BrbPrepare(seq, payload, size, self.view)
        cost = self._payload_recv_cost(size, payload)
        self.node.broadcast(
            self._others, message, size=size, recv_cost=cost,
            send_cost=costs.SEND_OVERHEAD,
        )
        # Local short-circuit: the broadcaster processes its own PREPARE.
        self._handle_prepare(self.node.node_id, message)

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
    # Stale-view traffic and anything a non-member sends are dropped here,
    # so every vote an instance counts is a member's in the installed view.
    def _on_prepare(self, src: int, message: BrbPrepare) -> None:
        if message.view == self.view and src in self._members:
            self._handle_prepare(src, message)

    def _handle_prepare(self, src: int, message: BrbPrepare) -> None:
        # The origin of a PREPARE is its (authenticated) sender, so a
        # Byzantine replica cannot broadcast under another identity.
        key = (src, message.seq)
        instance = self._instance(key)
        if instance is None or instance.echo_sent:
            return
        instance.echo_sent = True
        echo = BrbEcho(src, message.seq, message.payload, message.size,
                       self.view)
        self._send_and_self_apply(echo, self._apply_echo)
        if instance.delivered and key in self.delivered:
            self._instances.pop(key, None)  # the late ECHO was all it owed

    def _on_echo(self, src: int, message: BrbEcho) -> None:
        if message.view == self.view and src in self._members:
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
            self._send_ready(instance, message)

    def _on_ready(self, src: int, message: BrbReady) -> None:
        if message.view == self.view and src in self._members:
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
            self._send_ready(instance, message)
        if count >= self.ready_quorum and not instance.delivered:
            instance.delivered = True
            pending = self._completed.setdefault(message.origin, {})
            pending[message.seq] = message.payload
            self._advance(message.origin, pending)

    def _send_ready(self, instance: _Instance, message: Any) -> None:
        instance.ready_sent = True
        ready = BrbReady(message.origin, message.seq, message.payload,
                         message.size, self.view)
        self._send_and_self_apply(ready, self._apply_ready)

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
            if origin == self.node.node_id:
                self._own.pop(seq, None)
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

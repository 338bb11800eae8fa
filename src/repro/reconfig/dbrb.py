"""Dynamic Byzantine Reliable Broadcast (Appendix A-C, simplified).

DBRB [42] lets Astro I keep broadcasting across reconfigurations: a
broadcast started in view v still delivers at every correct member of the
final installed view.  The full protocol is an independent publication;
following the appendix's framing we provide the *behavioural* version used
by Astro: a Bracha-style BRB whose instances are tagged with views and are
re-emitted into newly installed views, so delivery survives membership
changes.  ``QDBRB`` — the totality-free variant suitable for Astro II — is
obtained by dropping the final all-to-all step (here: the READY
amplification round), exactly as described in §A-C.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Set, Tuple

from ..crypto import costs
from ..crypto.hashing import digest
from ..sim.node import Node
from .views import View

__all__ = ["DynamicBroadcast"]


class _DbrbMessage:
    __slots__ = ("kind", "view_number", "origin", "seq", "payload", "size")

    def __init__(self, kind: str, view_number: int, origin: int, seq: int,
                 payload: Any, size: int) -> None:
        self.kind = kind
        self.view_number = view_number
        self.origin = origin
        self.seq = seq
        self.payload = payload
        self.size = size


class _DbrbInstance:
    __slots__ = ("echoes", "readys", "echo_sent", "ready_sent", "delivered")

    def __init__(self) -> None:
        self.echoes: Dict[Any, Set[int]] = {}
        self.readys: Dict[Any, Set[int]] = {}
        self.echo_sent = False
        self.ready_sent = False
        self.delivered = False


class DynamicBroadcast:
    """View-aware Bracha BRB endpoint.

    Wire-compatible with the static protocol inside one view; on a view
    change (``install_view``), undelivered instances restart their quorum
    collection in the new view so that joiners participate and leavers
    stop counting toward quorums.
    """

    def __init__(
        self,
        node: Node,
        view: View,
        deliver: Callable[[int, int, Any], None],
        totality: bool = True,
    ) -> None:
        self.node = node
        self.view = view
        self.deliver_fn = deliver
        #: False selects QDBRB (no READY amplification → no totality).
        self.totality = totality
        self._instances: Dict[Tuple[int, int, int], _DbrbInstance] = {}
        #: (origin, seq) -> payload, for re-broadcast across views.
        self._undelivered_own: Dict[int, Any] = {}
        self._delivered_ids: Set[Tuple[int, int]] = set()
        self.delivered_count = 0
        node.on(_DbrbMessage, self._on_message)

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def broadcast(
        self, seq: int, payload: Any, payload_bytes: int = costs.PAYMENT_BYTES
    ) -> None:
        self._undelivered_own[seq] = (payload, payload_bytes)
        self._send("prepare", self.view.number, self.node.node_id, seq,
                   payload, costs.HEADER_BYTES + payload_bytes)

    def install_view(self, new_view: View) -> None:
        """Adopt a newly installed view; restart undelivered instances."""
        if new_view.number <= self.view.number:
            return
        self.view = new_view
        self.retry_pending()

    def retry_pending(self) -> None:
        """Re-emit our undelivered broadcasts in the current view.

        DBRB retransmits pending instances after reconnection or view
        installation; callers invoke this when connectivity returns
        (idempotent — delivered instances are never re-sent).
        """
        for seq, (payload, payload_bytes) in list(self._undelivered_own.items()):
            self._send("prepare", self.view.number, self.node.node_id, seq,
                       payload, costs.HEADER_BYTES + payload_bytes)

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def _send(self, kind: str, view_number: int, origin: int, seq: int,
              payload: Any, size: int) -> None:
        message = _DbrbMessage(kind, view_number, origin, seq, payload, size)
        cost = costs.MESSAGE_OVERHEAD + costs.MAC_VERIFY + costs.PER_BYTE_CPU * size
        # Fan-out order must be a pure function of the view's *content*:
        # iterating the set directly would order sends by hash-table
        # internals (insertion/resize history), not by membership.
        for member in sorted(self.view.members):
            if member == self.node.node_id:
                continue
            self.node.send(member, message, size=size, recv_cost=cost,
                           send_cost=costs.SEND_OVERHEAD)
        self._apply(self.node.node_id, message)

    def _on_message(self, src: int, message: _DbrbMessage) -> None:
        self._apply(src, message)

    def _apply(self, src: int, message: _DbrbMessage) -> None:
        if message.view_number != self.view.number:
            # Stale-view traffic is ignored; senders re-emit after they
            # install the current view.
            return
        if (message.origin, message.seq) in self._delivered_ids:
            return
        key = (message.view_number, message.origin, message.seq)
        instance = self._instances.setdefault(key, _DbrbInstance())
        payload_key = digest(message.payload)
        if message.kind == "prepare":
            if message.origin != src or instance.echo_sent:
                return
            instance.echo_sent = True
            self._send("echo", message.view_number, message.origin,
                       message.seq, message.payload, message.size)
        elif message.kind == "echo":
            voters = instance.echoes.setdefault(payload_key, set())
            voters.add(src)
            if (
                len(voters & self.view.members) >= self.view.quorum
                and not instance.ready_sent
            ):
                instance.ready_sent = True
                self._send("ready", message.view_number, message.origin,
                           message.seq, message.payload, message.size)
        elif message.kind == "ready":
            voters = instance.readys.setdefault(payload_key, set())
            voters.add(src)
            live = voters & self.view.members
            if (
                self.totality
                and len(live) >= self.view.f + 1
                and not instance.ready_sent
            ):
                instance.ready_sent = True
                self._send("ready", message.view_number, message.origin,
                           message.seq, message.payload, message.size)
            if len(live) >= 2 * self.view.f + 1 and not instance.delivered:
                instance.delivered = True
                self._delivered_ids.add((message.origin, message.seq))
                if message.origin == self.node.node_id:
                    self._undelivered_own.pop(message.seq, None)
                self.delivered_count += 1
                self.deliver_fn(message.origin, message.seq, message.payload)

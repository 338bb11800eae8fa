"""Actor base class for simulated processes (replicas, clients).

A :class:`Node` owns a CPU server and an outgoing link server, registers
with a :class:`~repro.sim.network.Network`, and dispatches incoming
payloads to handlers registered per message class.  Protocol code never
touches the event queue directly; it sends messages and sets timers.

``Node`` is the simulator backend of the
:class:`repro.transport.interface.Transport` contract: the same replica
objects that run here also run over real asyncio TCP sockets
(:class:`repro.transport.tcp.TcpTransport`).  The ``clock`` attribute is
the simulator itself, which satisfies
:class:`repro.transport.interface.Clock` structurally.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Sequence, Tuple, Type

from .events import Event, Simulator
from .network import Network
from .resources import CpuServer, LinkServer

__all__ = ["Node"]

#: Default NIC bandwidth, matching the ~30 MiB/s the paper measures
#: between EU regions (§VI-B).
DEFAULT_BANDWIDTH = 30 * 1024 * 1024

#: Default CPU core count, matching t2.medium's 2 vCores (§VI-B).
DEFAULT_CORES = 2.0


class Node:
    """A simulated process with CPU/NIC resources and message dispatch."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        network: Network,
        cores: float = DEFAULT_CORES,
        bandwidth: float = DEFAULT_BANDWIDTH,
    ) -> None:
        self.sim = sim
        #: Transport-contract clock: the simulator satisfies
        #: :class:`repro.transport.interface.Clock` directly.
        self.clock = sim
        self.node_id = node_id
        self.network = network
        self.cpu = CpuServer(sim, name=f"cpu[{node_id}]", cores=cores)
        self.link = LinkServer(sim, name=f"nic[{node_id}]", bandwidth=bandwidth)
        #: Modelled local CPU (Transport contract ``charge``); bound once
        #: since no tap ever intercepts it, unlike the three sends.
        self.charge = self.cpu.occupy
        self._handlers: Dict[Type[Any], Callable[[int, Any], None]] = {}
        #: The network's service FIFO for this node: ``_serving`` while a
        #: service step of ours is on the calendar, and the ``(done, seq,
        #: src, payload)`` steps queued behind it (``Network._arrive``).
        self._serving = False
        self._inbox: Deque[Tuple[float, int, int, Any]] = deque()
        # The crashed-node set behind ``crashed_view`` is mutated in
        # place, never replaced, so caching the reference makes ``alive``
        # a single set containment test (consulted per payment on hot
        # paths).
        self._crashed_ref = network.crashed_view()
        network.register(self)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def on(self, message_type: Type[Any], handler: Callable[[int, Any], None]) -> None:
        """Register ``handler(src, msg)`` for messages of ``message_type``."""
        self._handlers[message_type] = handler

    def handle_unknown(self, src: int, payload: Any) -> None:
        """Hook for unregistered message types; default is to ignore them.

        Ignoring (not raising) is deliberate: a Byzantine peer may send
        garbage, and a correct replica must not crash on it.
        """

    def send(
        self,
        dst: int,
        payload: Any,
        size: int = 256,
        recv_cost: Optional[float] = None,
        send_cost: float = 0.0,
    ) -> None:
        """Send one message; ``send_cost`` CPU is folded into our server."""
        if send_cost:
            self.cpu.occupy(send_cost)
        self.network.send(self.node_id, dst, payload, size=size, recv_cost=recv_cost)

    def broadcast(
        self,
        targets: Sequence[int],
        payload: Any,
        size: int = 256,
        recv_cost: Optional[float] = None,
        send_cost: float = 0.0,
    ) -> None:
        """Fan ``payload`` out to ``targets`` (which must exclude us).

        Equivalent to calling :meth:`send` per target, with the per-copy
        overhead hoisted into :meth:`Network.broadcast`.  Send-side CPU is
        still charged one job per copy (in one
        :meth:`~repro.sim.resources.FifoServer.occupy_many` call), so
        completion times stay identical to the per-send path.
        """
        if send_cost:
            self.cpu.occupy_many(send_cost, len(targets))
        self.network.broadcast(
            self.node_id, targets, payload, size=size, recv_cost=recv_cost
        )

    def send_each(
        self, sends: Sequence[Tuple[int, Any, int, Optional[float]]]
    ) -> None:
        """Send each ``(dst, payload, size, recv_cost)`` item (no ``dst``
        may be us): one :meth:`send` per item, as one
        :meth:`Network.send_each` train.  The caller charges their send
        CPU (``charge``)."""
        self.network.send_each(self.node_id, sends)

    # ------------------------------------------------------------------
    # Egress taps (Byzantine behaviour injection, repro.adversary)
    # ------------------------------------------------------------------
    def install_egress_tap(self, tap: Any) -> None:
        """Route this node's outgoing traffic through ``tap``.

        ``tap.bind(raw_send, raw_broadcast)`` receives the untapped bound
        methods, then ``tap.send`` / ``tap.broadcast`` shadow this
        instance's :meth:`send` and :meth:`broadcast`, and a loop over
        ``tap.send`` shadows :meth:`send_each`, so the tap sees every
        copy of a train too.  Installation is per-instance attribute
        shadowing, so nodes without a tap pay nothing on the hot path,
        and an installed tap that merely forwards reproduces the untapped
        history byte-for-byte (one send per item is what a train is).
        """
        tap.bind(Node.send.__get__(self), Node.broadcast.__get__(self))
        self.send = tap.send            # type: ignore[method-assign]
        self.broadcast = tap.broadcast  # type: ignore[method-assign]
        self.send_each = _each_through(tap.send)  # type: ignore[method-assign]

    def remove_egress_tap(self) -> None:
        """Undo :meth:`install_egress_tap` (idempotent)."""
        for name in ("send", "broadcast", "send_each"):
            self.__dict__.pop(name, None)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def set_timer(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule a local callback; suppressed if we crash in between."""
        return self.sim.schedule(delay, self._fire_timer, fn, args)

    def _fire_timer(self, fn: Callable[..., Any], args: tuple) -> None:
        if self.alive:
            fn(*args)

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.node_id not in self._crashed_ref

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} id={self.node_id}>"


def _each_through(send: Callable[..., None]) -> Callable[..., None]:
    """A ``send_each`` that hands every item to ``send`` in turn."""

    def send_each(sends: Sequence[Tuple[int, Any, int, Optional[float]]]) -> None:
        for dst, payload, size, recv_cost in sends:
            send(dst, payload, size=size, recv_cost=recv_cost)

    return send_each

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

from typing import Any, Callable, Dict, Optional, Sequence, Type

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
        #: since no tap ever intercepts it, unlike ``send``/``broadcast``.
        self.charge = self.cpu.occupy
        self._handlers: Dict[Type[Any], Callable[[int, Any], None]] = {}
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
        still charged one occupancy per copy so completion times stay
        identical to the per-send path.
        """
        if send_cost:
            occupy = self.cpu.occupy
            for _ in targets:
                occupy(send_cost)
        self.network.broadcast(
            self.node_id, targets, payload, size=size, recv_cost=recv_cost
        )

    # ------------------------------------------------------------------
    # Egress taps (Byzantine behaviour injection, repro.adversary)
    # ------------------------------------------------------------------
    def install_egress_tap(self, tap: Any) -> None:
        """Route this node's outgoing traffic through ``tap``.

        ``tap.bind(raw_send, raw_broadcast)`` receives the untapped bound
        methods, then ``tap.send`` / ``tap.broadcast`` shadow this
        instance's :meth:`send` and :meth:`broadcast`.  Installation is
        per-instance attribute shadowing, so nodes without a tap pay
        nothing on the hot path, and an installed tap that merely
        forwards reproduces the untapped history byte-for-byte.
        """
        tap.bind(Node.send.__get__(self), Node.broadcast.__get__(self))
        self.send = tap.send            # type: ignore[method-assign]
        self.broadcast = tap.broadcast  # type: ignore[method-assign]

    def remove_egress_tap(self) -> None:
        """Undo :meth:`install_egress_tap` (idempotent)."""
        self.__dict__.pop("send", None)
        self.__dict__.pop("broadcast", None)

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

"""Protocol endpoint: a state machine composed over a Transport.

Replicas used to *be* simulator nodes (subclasses of
:class:`repro.sim.node.Node`); they are now plain objects holding a
:class:`~repro.transport.interface.Transport`, so the same replica runs
on the simulator or on real asyncio TCP sockets.  This base class keeps
the familiar ``self.send(...)`` / ``self.set_timer(...)`` surface as
thin delegators.

Delegation rules encoded here (and relied on by ``repro.adversary``):

* ``send`` / ``broadcast`` / ``charge`` are *cached bound methods* of
  the transport — they sit on per-payment hot paths and a delegating
  def would add a Python frame to every message.  An egress tap shadows
  the transport instance's ``send``/``broadcast``, so
  :meth:`install_egress_tap` / :meth:`remove_egress_tap` re-resolve the
  cache; taps MUST be installed through the endpoint, never directly on
  the transport, or replica-originated sends bypass them.
* ``cpu`` / ``link`` / ``sim`` / ``network`` resolve through the
  transport and therefore only exist on the simulator backend; protocol
  logic must not touch them (instrumentation and tests may).
"""

from __future__ import annotations

from typing import Any, Callable, Type

from .interface import TimerHandle, Transport

__all__ = ["ProtocolEndpoint"]


class ProtocolEndpoint:
    """Base for replica/client state machines bound to a transport."""

    def __init__(self, transport: Transport) -> None:
        self.transport = transport
        self.node_id = transport.node_id
        self.clock = transport.clock
        self.charge = transport.charge
        self._sync_egress()

    def _sync_egress(self) -> None:
        """(Re-)cache the transport's current send/broadcast.

        Called at construction and around tap install/removal — the
        cached bound methods are the hot-path fast path; the tap
        machinery is the only thing that changes what they resolve to.
        """
        self.send = self.transport.send
        self.broadcast = self.transport.broadcast

    def on(
        self, message_type: Type[Any], handler: Callable[[int, Any], None]
    ) -> None:
        self.transport.on(message_type, handler)

    # ------------------------------------------------------------------
    # Timers / liveness
    # ------------------------------------------------------------------
    def set_timer(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        return self.transport.set_timer(delay, fn, *args)

    @property
    def alive(self) -> bool:
        return self.transport.alive

    # ------------------------------------------------------------------
    # Egress taps (repro.adversary)
    # ------------------------------------------------------------------
    def install_egress_tap(self, tap: Any) -> None:
        self.transport.install_egress_tap(tap)
        self._sync_egress()

    def remove_egress_tap(self) -> None:
        self.transport.remove_egress_tap()
        self._sync_egress()

    # ------------------------------------------------------------------
    # Simulator-backend accessors (instrumentation/tests only)
    # ------------------------------------------------------------------
    @property
    def cpu(self):
        return self.transport.cpu

    @property
    def link(self):
        return self.transport.link

    @property
    def sim(self):
        return self.transport.sim

    @property
    def network(self):
        return self.transport.network

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} id={self.node_id}>"

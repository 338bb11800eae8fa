"""The Transport/Clock contracts the protocol layers are written against.

Every replica (``core/``, ``consensus/``) and broadcast endpoint
(``brb/``) talks to its environment exclusively through a *transport*
object and the transport's *clock*.  The contracts are structural
(:class:`typing.Protocol`) — backends do not inherit from them; the
simulator's :class:`repro.sim.node.Node` and the asyncio backend's
:class:`repro.transport.tcp.TcpTransport` both satisfy them by shape.
This module imports nothing from ``repro.sim`` so a real deployment
never loads the simulator.

Contract notes (the parts a new backend must get right):

* **send/broadcast/send_each are fire-and-forget.**  The asynchronous
  network abstraction of the paper (§III) has no failure notifications:
  a send to a dead or unreachable peer is silently dropped.  ``size``,
  ``recv_cost`` and ``send_cost`` describe the *modelled* wire size and
  CPU of the message; the simulator charges them, a real backend may
  ignore them (real wire bytes and CPU are spent for real).
* **``send_each(sends)`` is a per-destination fan-out.**  Each
  ``(dst, payload, size, recv_cost)`` item is one ``send``, in order;
  no item may address the sender itself.  It takes no ``send_cost``:
  the caller pays the send CPU with ``charge``, in its own order.  The
  simulator ships the items as one train; a real backend
  may loop over ``send``.
* **``charge(cost)`` is modelled local CPU.**  Protocol code calls it
  for work that happens outside a message send (signing its own ACK,
  settling a batch).  The simulator occupies the node's CPU server;
  real backends make it a no-op — the work itself already burned the
  cycles.
* **Timers fire only while the node is alive.**  ``set_timer`` wraps
  the clock's ``schedule`` with a liveness gate so a crashed (sim) or
  closed (real) node never observes its own callbacks.
* **Liveness is public.**  ``alive`` must not reach into backend
  internals; the simulator exposes the network's crashed set through
  :meth:`repro.sim.network.Network.crashed_view`.
* **Egress taps** (``install_egress_tap`` / ``remove_egress_tap``)
  shadow the instance's ``send``/``broadcast`` with the tap's, binding
  the raw bound methods via ``tap.bind(raw_send, raw_broadcast)``; a tap
  sees every item of a ``send_each`` as one ``tap.send``.
  Whoever caches a bound ``send``/``broadcast``/``send_each`` must
  re-resolve it when a tap is armed or removed mid-run
  (``repro.adversary``):
  :class:`~repro.transport.endpoint.ProtocolEndpoint` caches all three and
  re-syncs in its own ``install_egress_tap``/``remove_egress_tap``, so
  taps are installed *through the endpoint*; the BRB layers hold the
  transport and call ``transport.send(...)`` dynamically.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    runtime_checkable,
)

__all__ = ["Clock", "Transport", "TimerHandle"]


@runtime_checkable
class TimerHandle(Protocol):
    """A scheduled callback that can be cancelled (idempotently)."""

    def cancel(self) -> None:
        ...


@runtime_checkable
class Clock(Protocol):
    """Time source and scheduler.

    The simulator's :class:`~repro.sim.events.Simulator` satisfies this
    directly (simulated seconds); :class:`repro.transport.clock.RealTimeClock`
    maps it onto an asyncio event loop (wall-clock seconds).  ``now`` is
    monotonic within one run; its epoch is backend-defined.
    """

    now: float

    def schedule(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        """Run ``fn(*args)`` after ``delay`` seconds; cancellable."""
        ...

    def schedule_at(
        self, time: float, fn: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        """Run ``fn(*args)`` at absolute ``time``; cancellable."""
        ...

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule` (no handle, never cancelled)."""
        ...

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`."""
        ...


@runtime_checkable
class Transport(Protocol):
    """One node's messaging endpoint (see the module docstring contract)."""

    node_id: int
    clock: Clock

    def send(
        self,
        dst: int,
        payload: Any,
        size: int = 256,
        recv_cost: Optional[float] = None,
        send_cost: float = 0.0,
    ) -> None:
        ...

    def broadcast(
        self,
        targets: Sequence[int],
        payload: Any,
        size: int = 256,
        recv_cost: Optional[float] = None,
        send_cost: float = 0.0,
    ) -> None:
        ...

    def send_each(
        self, sends: Sequence[Tuple[int, Any, int, Optional[float]]]
    ) -> None:
        """One ``send(dst, payload, size, recv_cost)`` per item, in order;
        send CPU is the caller's ``charge``."""
        ...

    def on(
        self, message_type: Type[Any], handler: Callable[[int, Any], None]
    ) -> None:
        """Register ``handler(src, msg)`` for payloads of ``message_type``."""
        ...

    def charge(self, cost: float) -> None:
        """Account modelled local CPU (no-op on real backends)."""
        ...

    def set_timer(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        """Schedule a local callback, suppressed if the node dies first."""
        ...

    @property
    def alive(self) -> bool:
        ...

    def install_egress_tap(self, tap: Any) -> None:
        ...

    def remove_egress_tap(self) -> None:
        ...

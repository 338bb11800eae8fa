"""Load drivers: open-loop (rate-driven) and closed-loop clients.

The paper measures peak throughput by saturating the systems with many
client threads (open-loop here) and runs the robustness timelines with 10
single-threaded clients issuing one request at a time (closed-loop,
§VI-D).  Both drivers record the same observables: settled payments per
second (client-visible confirmations) and confirmation latency.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from ..core.payment import ClientId, Payment, PaymentId
from ..sim.metrics import LatencyRecorder, ThroughputMeter

__all__ = ["OpenLoopDriver", "ClosedLoopDriver"]

#: Any system exposing submit()/add_confirm_hook()/add_client_node().
PaymentSystemLike = Any


class OpenLoopDriver:
    """Injects payments at a fixed aggregate rate, independent of progress.

    Arrivals are smoothed over small ticks (5 ms): per tick the
    driver injects ``rate * tick`` payments (with fractional carry), which
    keeps simulator event counts proportional to the injected load while
    preserving the offered rate exactly.  Latency is the client's: the
    driver keeps each payment's submission time until its confirmation;
    a payment that never confirms (rejected, or sent to a crashed
    representative) keeps its entry until ``finish_open_loop`` clears
    them.
    """

    tick = 0.005

    def __init__(
        self,
        system: PaymentSystemLike,
        workload: Any,
        rate: float,
        duration: float,
        start: float = 0.0,
        meter: Optional[ThroughputMeter] = None,
        recorder: Optional[LatencyRecorder] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.system = system
        self.workload = workload
        self.rate = rate
        self.start = start
        self.end = start + duration
        self.meter = meter
        self.recorder = recorder
        self.injected = 0
        self.confirmed = 0
        self._carry = 0.0
        #: Identifier -> submission time of each unconfirmed payment.
        self._submitted: Dict[PaymentId, float] = {}
        system.add_confirm_hook(self._on_confirm)
        system.sim.schedule_at(start, self._tick_fn)

    def _tick_fn(self) -> None:
        system = self.system
        now = system.sim.now
        if now >= self.end:
            return
        self._carry += self.rate * self.tick
        count = int(self._carry)
        self._carry -= count
        next_op = self.workload.next
        submit, submitted = system.submit, self._submitted
        injected = 0
        for _ in range(count):
            operation = next_op()
            if operation is None:
                continue  # read-only op (e.g. Smallbank Balance)
            submitted[submit(*operation).identifier] = now
            injected += 1
        self.injected += injected
        system.sim.call_after(self.tick, self._tick_fn)

    def _on_confirm(self, payment: Payment, settled_at: float) -> None:
        self.confirmed += 1
        if self.meter is not None:
            self.meter.record(settled_at)
        submitted_at = self._submitted.pop(payment.identifier, None)
        if self.recorder is not None and submitted_at is not None:
            self.recorder.record(submitted_at, settled_at)


class ClosedLoopDriver:
    """One-in-flight clients: each confirmation triggers the next payment.

    Models the paper's robustness setup — "we use 10 clients, each running
    a single thread" (§VI-D).  Clients whose representative fails simply
    stall (fate-sharing), exactly as in the paper.
    """

    def __init__(
        self,
        system: PaymentSystemLike,
        client_ids: Sequence[ClientId],
        workload: Any,
        stop_at: float,
        think_time: float = 0.0,
        meter: Optional[ThroughputMeter] = None,
        recorder: Optional[LatencyRecorder] = None,
    ) -> None:
        self.system = system
        self.workload = workload
        self.stop_at = stop_at
        self.think_time = think_time
        self.meter = meter
        self.recorder = recorder
        self.completed = 0
        self.nodes = []
        for position, client in enumerate(client_ids):
            node = self.system.add_client_node(
                client, on_confirm=self._make_confirm(client)
            )
            self.nodes.append(node)
            # First requests staggered over 100 ms, not one burst.
            offset = 0.1 * position / max(len(client_ids), 1)
            system.sim.schedule_at(offset, self._issue, client, node)

    def _make_confirm(self, client: ClientId) -> Callable[[Payment, float], None]:
        def confirmed(payment: Payment, latency: float) -> None:
            now = self.system.sim.now
            self.completed += 1
            if self.meter is not None:
                self.meter.record(now)
            if self.recorder is not None:
                self.recorder.record(now - latency, now)
            node = self._node_of(client)
            if now + self.think_time < self.stop_at:
                if self.think_time > 0:
                    self.system.sim.schedule(self.think_time, self._issue, client, node)
                else:
                    self._issue(client, node)

        return confirmed

    def _node_of(self, client: ClientId):
        for node in self.nodes:
            if node.client_id == client:
                return node
        raise KeyError(client)

    def _issue(self, client: ClientId, node: Any) -> None:
        if self.system.sim.now >= self.stop_at:
            return
        _, beneficiary, amount = self.workload.next_for(client)
        node.pay(beneficiary, amount)

"""Simulated message-passing network.

Implements the asynchronous, authenticated point-to-point network assumed
by the paper (§III): messages between correct nodes are eventually
delivered, with no bound on delivery time enforced by the protocols.  The
simulator adds a concrete performance model on top:

* sender NIC serialization (``size / bandwidth``) through a FIFO link,
* one-way propagation latency from a :class:`~repro.sim.latency.LatencyModel`,
* fault-injected extra egress delay (the paper's ``tc netem delay``),
* receiver CPU service time before the protocol handler runs.

Crashed nodes neither send nor receive; partitions drop messages in both
directions.  Dropping (rather than erroring) models an asynchronous network
in which a message to a dead host is simply never delivered.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple

from .events import Simulator
from .latency import ConstantLatency, LatencyModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import Node

__all__ = ["Network", "NetworkStats"]


class NetworkStats:
    """Aggregate traffic counters, optionally broken down by message kind."""

    def __init__(self, track_kinds: bool = False) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        self.track_kinds = track_kinds
        self.by_kind: Dict[str, int] = {}

    def record_send(self, payload: Any, size: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += size
        if self.track_kinds:
            kind = type(payload).__name__
            self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    def reset(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        self.by_kind.clear()


class Network:
    """Connects :class:`~repro.sim.node.Node` instances.

    Nodes register with unique integer ids; every message runs the full
    resource pipeline.
    """

    #: Default per-message receive CPU cost: kernel/network-stack overhead
    #: for one message on a commodity VM (~10 µs).
    DEFAULT_RECV_CPU = 10e-6

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        track_kinds: bool = False,
    ) -> None:
        self.sim = sim
        self.latency = latency if latency is not None else ConstantLatency(0.01)
        self.nodes: Dict[int, "Node"] = {}
        self.stats = NetworkStats(track_kinds=track_kinds)
        self._crashed: Set[int] = set()
        self._egress_delay: Dict[int, float] = {}
        self._blocked: Set[Tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, node: "Node") -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self.nodes[node.node_id] = node

    # ------------------------------------------------------------------
    # Fault state (driven by repro.sim.faults.FaultInjector)
    # ------------------------------------------------------------------
    def crash(self, node_id: int) -> None:
        self._crashed.add(node_id)

    def recover(self, node_id: int) -> None:
        self._crashed.discard(node_id)

    def is_crashed(self, node_id: int) -> bool:
        return node_id in self._crashed

    def crashed_view(self) -> Set[int]:
        """Live view of the crashed-node set (public liveness accessor).

        The set object is mutated in place by :meth:`crash` /
        :meth:`recover` and never replaced, so holders may cache the
        returned reference and test membership directly — this is what
        makes :attr:`repro.sim.node.Node.alive` a single set containment
        test on hot paths.  Callers must treat it as read-only.
        """
        return self._crashed

    def set_egress_delay(self, node_id: int, extra: float) -> None:
        """Add ``extra`` seconds to every message leaving ``node_id``.

        Mirrors the paper's ``tc qdisc ... netem delay 100ms`` injection
        (§VI-D) which delays all outgoing packets of one replica.
        """
        if extra <= 0:
            self._egress_delay.pop(node_id, None)
        else:
            self._egress_delay[node_id] = extra

    def block(self, a: int, b: int) -> None:
        """Partition the (directed) pair: messages a→b are dropped."""
        self._blocked.add((a, b))

    def unblock(self, a: int, b: int) -> None:
        self._blocked.discard((a, b))

    def heal(self) -> None:
        """Clear every partition and egress delay (crashes stay)."""
        self._blocked.clear()
        self._egress_delay.clear()

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        payload: Any,
        size: int = 256,
        recv_cost: Optional[float] = None,
    ) -> None:
        """Send ``payload`` from node ``src`` to node ``dst``.

        The message is silently dropped if the source is crashed, the
        destination is unknown/crashed at delivery time, or the pair is
        partitioned — the asynchronous-network abstraction has no failure
        notifications.
        """
        if src in self._crashed:
            return
        self.stats.record_send(payload, size)
        if (src, dst) in self._blocked:
            self.stats.messages_dropped += 1
            return
        src_node = self.nodes.get(src)
        if src_node is None:
            raise ValueError(f"unknown source node {src}")
        if src == dst:
            # Loopback: no NIC serialization or propagation, but the CPU
            # still processes the message like any other.
            self._arrive(src, dst, payload, recv_cost)
            return
        serialized_at = src_node.link.transmit(size)
        delay = self.latency.sample(src, dst)
        extra = self._egress_delay.get(src)
        if extra:
            delay += extra
        self.sim.call_at(
            serialized_at + delay, self._arrive, src, dst, payload, recv_cost
        )

    def broadcast(
        self,
        src: int,
        dsts: Sequence[int],
        payload: Any,
        size: int = 256,
        recv_cost: Optional[float] = None,
    ) -> None:
        """Send one ``payload`` from ``src`` to every node in ``dsts``.

        Exactly equivalent to calling :meth:`send` once per destination in
        order — same per-copy NIC serialization chain, same latency-model
        draws, same event ordering — but with the per-copy bookkeeping
        (stats, fault lookups, link attribute chasing) hoisted out of the
        loop.  This is the hot path of every quorum protocol's all-to-all
        phases.  ``dsts`` must not contain ``src`` (loopback handling
        belongs to :meth:`send`).
        """
        if src in self._crashed:
            return
        src_node = self.nodes.get(src)
        if src_node is None:
            raise ValueError(f"unknown source node {src}")
        stats = self.stats
        copies = len(dsts)
        stats.messages_sent += copies
        stats.bytes_sent += size * copies
        if stats.track_kinds:
            kind = type(payload).__name__
            stats.by_kind[kind] = stats.by_kind.get(kind, 0) + copies
        link = src_node.link
        per = (size / link.bandwidth) / link.rate
        busy = link._busy_until
        now = self.sim.now
        if busy < now:
            busy = now
        transmitted = 0
        sample = self.latency.sample
        extra = self._egress_delay.get(src)
        blocked = self._blocked
        sim = self.sim
        #: (time, seq, dst) arrivals of this broadcast; they ride one
        #: calendar entry (the arrival train below).
        arrivals: List[tuple] = []
        for dst in dsts:
            if blocked and (src, dst) in blocked:
                stats.messages_dropped += 1
                continue
            busy += per
            transmitted += 1
            delay = sample(src, dst)
            if extra:
                delay += extra
            seq = sim._seq
            sim._seq = seq + 1
            arrivals.append((busy + delay, seq, dst))
        if transmitted:
            link._busy_until = busy
            link.busy_time += per * transmitted
            link.jobs_served += transmitted
        if not arrivals:
            return
        # Arrival train: the copies' (time, seq) keys are reserved above —
        # identical to one :meth:`send` per copy — but only the *head*
        # arrival occupies the calendar (inlined sim.call_at; never in the
        # past); delivering it re-pushes the train at the next arrival's
        # reserved key, so the queue holds O(1) entries per in-flight
        # broadcast instead of O(N).  Delivery order is unchanged: the heap
        # pops by the same (time, seq) keys either way.  Sorting is needed
        # because per-destination latency varies, so arrival times are not
        # monotonic in destination order.
        arrivals.sort()
        time, seq, _dst = arrivals[0]
        _heappush(
            sim._heap,
            (time, seq, self._train_step, ([0, arrivals, src, payload, recv_cost],)),
        )

    def _train_step(self, train: list) -> None:
        """Deliver the train's head arrival and reschedule the remainder."""
        index, arrivals, src, payload, recv_cost = train
        dst = arrivals[index][2]
        index += 1
        if index < len(arrivals):
            train[0] = index
            time, seq, _dst = arrivals[index]
            _heappush(self.sim._heap, (time, seq, self._train_step, (train,)))
        self._arrive(src, dst, payload, recv_cost)

    def _arrive(
        self, src: int, dst: int, payload: Any, recv_cost: Optional[float]
    ) -> None:
        node = self.nodes.get(dst)
        if node is None or dst in self._crashed:
            self.stats.messages_dropped += 1
            return
        cost = recv_cost if recv_cost is not None else self.DEFAULT_RECV_CPU
        node.cpu.submit(cost, self._dispatch, src, dst, payload)

    def _dispatch(self, src: int, dst: int, payload: Any) -> None:
        node = self.nodes.get(dst)
        if node is None or dst in self._crashed:
            self.stats.messages_dropped += 1
            return
        self.stats.messages_delivered += 1
        # The node's handler table, read here rather than through a Node
        # method: one dispatch per delivered message.
        handler = node._handlers.get(payload.__class__)
        if handler is None:
            node.handle_unknown(src, payload)
        else:
            handler(src, payload)


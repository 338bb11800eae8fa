"""Simulated message-passing network.

Implements the asynchronous, authenticated point-to-point network assumed
by the paper (§III): messages between correct nodes are eventually
delivered, with no bound on delivery time enforced by the protocols.  The
simulator adds a concrete performance model on top.  A hop is two
calendar steps:

* at send time, the copy is serialized on the sender's FIFO link
  (``size / bandwidth``), draws a one-way delay from the
  :class:`~repro.sim.latency.LatencyModel` plus any fault-injected egress
  delay (the paper's ``tc netem delay``), and its arrival is pushed on
  the calendar.  A fan-out — :meth:`Network.broadcast` (one payload) or
  :meth:`Network.send_each` (a payload per destination) — draws all its
  copies' delays in one call and is one *train*: every copy's ``(time,
  seq)`` key is reserved as one send per copy would, but only the
  earliest arrival is on the calendar and each arrival pushes the next;
* **arrival** charges the receiver's FIFO CPU the receive cost and
  queues the service step at the completion time;
* **service** runs the receiver's handler for the payload's class.

The service steps of one node form a FIFO: its CPU only ever moves
later and sequence numbers are allocated in order, so they complete in
``(done, seq)`` order.  Only the first is on the calendar; the rest wait
in the node's inbox, and each service step pushes the next before its
handler runs.  A backlogged node thus holds one calendar entry, and the
heap pops by the same keys as if every step were on it.

Crashed nodes neither send nor receive — a crash is checked at arrival
and again at service, so it drops every queued service step of the node
and a recovery lets the later ones run; partitions drop messages in both
directions.  Dropping (rather than erroring) models an asynchronous
network in which a message to a dead host is simply never delivered.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from itertools import repeat
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

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
        #: The simulator's calendar (compacted in place, never replaced).
        self._heap = sim._heap

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

        Serializes, draws the delay and pushes the arrival (module
        docstring); a loopback copy arrives now.  The message is silently
        dropped if the source is crashed, the destination is unknown or
        crashed at arrival or service, or the pair is partitioned — the
        asynchronous-network abstraction has no failure notifications.
        """
        if src in self._crashed:
            return
        if recv_cost is not None and recv_cost < 0:
            raise ValueError(f"negative receive cost: {recv_cost}")
        self.stats.record_send(payload, size)
        if (src, dst) in self._blocked:
            self.stats.messages_dropped += 1
            return
        src_node = self.nodes.get(src)
        if src_node is None:
            raise ValueError(f"unknown source node {src}")
        cost = recv_cost if recv_cost is not None else self.DEFAULT_RECV_CPU
        if src == dst:
            self._arrive(dst, src, payload, cost)
            return
        link = src_node.link
        serialized_at = link.occupy(size / link.bandwidth)
        delay = self.latency.sample(src, dst)
        extra = self._egress_delay.get(src)
        if extra:
            delay += extra
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(
            self._heap,
            (serialized_at + delay, seq, self._arrive, (dst, src, payload, cost)),
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
        order — same per-copy link serialization chain, same latency draws
        (one :meth:`~repro.sim.latency.LatencyModel.delays` call for the
        copies no partition drops), same sequence numbers, same events —
        but with the per-copy bookkeeping hoisted out of the loop.  This
        is the hot path of every quorum protocol's all-to-all phases.
        ``dsts`` must not contain ``src`` (loopback handling belongs to
        :meth:`send`).
        """
        if src in self._crashed:
            return
        if recv_cost is not None and recv_cost < 0:
            raise ValueError(f"negative receive cost: {recv_cost}")
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
        blocked = self._blocked
        if blocked:
            dsts = [dst for dst in dsts if (src, dst) not in blocked]
            stats.messages_dropped += copies - len(dsts)
        if not dsts:
            return
        link = src_node.link
        arrivals = self._launch(
            src, link, dsts, dsts, repeat(size / link.bandwidth / link.rate)
        )
        time, seq, dst = arrivals.pop()
        cost = recv_cost if recv_cost is not None else self.DEFAULT_RECV_CPU
        _heappush(
            self._heap, (time, seq, self._arrive, (dst, src, payload, cost, arrivals))
        )

    def send_each(
        self, src: int, sends: Sequence[Tuple[int, Any, int, Optional[float]]]
    ) -> None:
        """Send each ``(dst, payload, size, recv_cost)`` of ``sends`` from
        ``src`` — a fan-out whose copies differ per destination.

        Exactly equivalent to one :meth:`send` per item, in order, and
        built like :meth:`broadcast`: one pass for the statistics and the
        partition, one :meth:`~repro.sim.latency.LatencyModel.delays`
        call, one link chain and one arrival train.  No item may address
        ``src`` (loopback handling belongs to :meth:`send`).
        """
        if src in self._crashed:
            return
        src_node = self.nodes.get(src)
        if src_node is None:
            raise ValueError(f"unknown source node {src}")
        stats = self.stats
        for _dst, payload, size, cost in sends:
            if cost is not None and cost < 0:
                raise ValueError(f"negative receive cost: {cost}")
            stats.record_send(payload, size)
        blocked = self._blocked
        if blocked:
            kept = [item for item in sends if (src, item[0]) not in blocked]
            stats.messages_dropped += len(sends) - len(kept)
            sends = kept
        if not sends:
            return
        link = src_node.link
        bandwidth, rate = link.bandwidth, link.rate
        arrivals = self._launch(
            src, link, [item[0] for item in sends], sends,
            [size / bandwidth / rate for _dst, _payload, size, _cost in sends],
        )
        time, seq, (dst, payload, _size, cost) = arrivals.pop()
        if cost is None:
            cost = self.DEFAULT_RECV_CPU
        _heappush(
            self._heap, (time, seq, self._arrive, (dst, src, payload, cost, arrivals))
        )

    def _launch(
        self,
        src: int,
        link: Any,
        dsts: Sequence[int],
        cargo: Iterable[Any],
        link_times: Iterable[float],
    ) -> List[tuple]:
        """Serialize a fan-out's copies on ``src``'s ``link`` in order,
        draw their delays and reserve their ``(time, seq)`` keys, as one
        :meth:`send` per copy would.

        Returns the arrivals as ``(time, seq, cargo)`` entries, latest
        first.  Only the earliest goes on the calendar; the rest ride it
        as a train (the list is popped from its end) and each arrival
        pushes the next, so the heap pops by the same keys as after one
        send per copy.  Sorting is needed because per-destination delays
        vary.
        """
        delays = self.latency.delays(src, dsts)
        extra = self._egress_delay.get(src)
        if extra:
            delays = [delay + extra for delay in delays]
        sim = self.sim
        busy = link._busy_until
        if busy < sim.now:
            busy = sim.now
        busy_time = link.busy_time
        seq = sim._seq
        arrivals = []
        for item, delay, per in zip(cargo, delays, link_times):
            busy += per
            busy_time += per
            arrivals.append((busy + delay, seq, item))
            seq += 1
        sim._seq = seq
        link._busy_until = busy
        link.busy_time = busy_time
        link.jobs_served += len(arrivals)
        arrivals.sort(reverse=True)
        return arrivals

    def _arrive(
        self, dst: int, src: int, payload: Any, cost: float,
        train: Optional[List[tuple]] = None,
    ) -> None:
        """Arrival step: push the train's next arrival, if any; charge
        ``dst``'s CPU ``cost``; queue the service step (see
        :meth:`_serve`)."""
        if train:
            time, seq, following = train.pop()
            if following.__class__ is tuple:
                # A send_each copy: its own payload and receive cost.
                following, next_payload, _size, next_cost = following
                if next_cost is None:
                    next_cost = self.DEFAULT_RECV_CPU
                args = (following, src, next_payload, next_cost, train)
            else:
                args = (following, src, payload, cost, train)
            _heappush(self._heap, (time, seq, self._arrive, args))
        node = self.nodes.get(dst)
        if node is None or dst in self._crashed:
            self.stats.messages_dropped += 1
            return
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        # ``cpu.occupy(cost)`` inline (one frame less per message); the
        # send entry points refuse a negative cost.
        cpu = node.cpu
        done = cpu._busy_until
        now = sim.now
        if done < now:
            done = now
        cost /= cpu.rate
        done += cost
        cpu._busy_until = done
        cpu.busy_time += cost
        cpu.jobs_served += 1
        # The node's service steps complete in (done, seq) order: its CPU
        # only ever moves later and seqs are allocated in order.  So only
        # the first is on the calendar; the rest wait in its inbox.
        if node._serving:
            node._inbox.append((done, seq, src, payload))
        else:
            node._serving = True
            _heappush(self._heap, (done, seq, self._serve, (node, src, payload)))

    def _serve(self, node: "Node", src: int, payload: Any) -> None:
        """Service step: push ``node``'s next queued service step, if
        any; run ``node``'s handler, unless it crashed."""
        inbox = node._inbox
        if inbox:
            done, seq, next_src, next_payload = inbox.popleft()
            _heappush(
                self._heap, (done, seq, self._serve, (node, next_src, next_payload))
            )
        else:
            node._serving = False
        if node.node_id in self._crashed:
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

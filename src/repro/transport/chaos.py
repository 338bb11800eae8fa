"""Fault timelines for the live TCP cluster (and the simulator).

One timeline spec drives both backends.  The grammar is a ``;``-separated
list of events, each ``action[:body]@time`` with times in seconds
relative to the start of the measurement window:

``crash:1@5``
    SIGKILL replica 1 at t=5 (simulator: crash-stop).
``recover:1@10``
    Restart replica 1 at t=10 (simulator: un-crash).
``delay:2x0.05@3``
    From t=3, everything leaving replica 2 arrives 50 ms later (added
    latency, not a rate limit).
``drop:2x0.3@3``
    From t=3, drop 30 % of messages leaving replica 2 (live only — the
    simulator's :class:`~repro.sim.faults.FaultInjector` has no
    probabilistic loss).
``partition:0,1|2,3@4``
    Sever {0,1} from {2,3} in both directions at t=4.
``heal@8``
    Clear every delay/drop/partition at t=8.

:func:`parse_timeline` is where the outside string enters, so it is
where events are validated; both backends consume the parsed
:class:`FaultEvent` list.  :func:`apply_timeline` schedules it on a
simulation's ``system.faults`` (:func:`repro.bench.timeline.run_timeline`
takes the string; Figs. 5–7 are spelled in it); a
:class:`LiveFaultInjector` executes it against a real cluster
(``--chaos``) — the identical spec produces the analogous fault
schedule, the basis of the sim-vs-live parity tests.  The empty spec is
the fault-free run on both.

The live side implements transport shaping via :class:`LinkFault`
control messages (applied to :meth:`TcpTransport.set_link_fault` inside
each replica process) and process faults via SIGKILL/respawn in the
cluster parent.  Safety under a timeline is not checked here: the
cluster parent hands the replicas' ``"state"`` readings — views in the
one format :class:`~repro.adversary.monitor.InvariantMonitor` checks on
both backends — straight to the monitor.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import (
    Any,
    Awaitable,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "FaultEvent",
    "LinkFault",
    "LiveFaultInjector",
    "apply_link_fault",
    "apply_timeline",
    "check_replica_ids",
    "parse_timeline",
]


@dataclass(frozen=True)
class FaultEvent:
    """One parsed timeline event."""

    at: float
    action: str
    args: Tuple[Any, ...]

    @property
    def nodes(self) -> Tuple[int, ...]:
        """Every replica id the event names."""
        if self.action == "partition":
            return self.args[0] + self.args[1]
        return self.args[:1]


def _node(text: str) -> int:
    node_id = int(text)
    if node_id < 0:
        raise ValueError(f"replica id must be >= 0, got {node_id}")
    return node_id


def _group(text: str) -> Tuple[int, ...]:
    return tuple(sorted({_node(n) for n in text.split(",") if n.strip()}))


def parse_timeline(spec: str) -> List[FaultEvent]:
    """Parse a timeline spec (see module docstring) into sorted events.

    Raises ``ValueError`` on anything no backend could execute: an
    unknown action, a time that is negative or not finite, a negative
    delay, a drop probability outside [0, 1], empty or overlapping
    partition groups (a shared member would block a node from itself),
    a body on ``heal``, and — in time order — a ``crash`` of a replica
    that is down or a ``recover`` of one that is up (live, that would
    start a second process on the running replica's port).
    """
    events: List[FaultEvent] = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, sep, when = chunk.rpartition("@")
        if not sep:
            raise ValueError(f"timeline event {chunk!r} is missing '@time'")
        at = float(when)
        if not 0 <= at < math.inf:
            raise ValueError(f"event time must be finite and >= 0: {chunk!r}")
        action, _, body = head.partition(":")
        action = action.strip()
        if action in ("crash", "recover"):
            events.append(FaultEvent(at, action, (_node(body),)))
        elif action in ("delay", "drop"):
            node_text, sep, value_text = body.partition("x")
            if not sep:
                raise ValueError(
                    f"{action} event needs 'node x value', got {body!r}"
                )
            value = float(value_text)
            # A NaN fails either comparison chain.
            if action == "drop" and not 0 <= value <= 1:
                raise ValueError(
                    f"drop probability must be in [0, 1], got {value_text!r}"
                )
            if action == "delay" and not 0 <= value < math.inf:
                raise ValueError(
                    f"delay must be finite and >= 0, got {value_text!r}"
                )
            events.append(FaultEvent(at, action, (_node(node_text), value)))
        elif action == "partition":
            side_a, sep, side_b = body.partition("|")
            if not sep:
                raise ValueError(
                    f"partition event needs 'a,b|c,d', got {body!r}"
                )
            group_a, group_b = _group(side_a), _group(side_b)
            if not group_a or not group_b or set(group_a) & set(group_b):
                raise ValueError(
                    f"partition groups must be non-empty and disjoint, "
                    f"got {body!r}"
                )
            events.append(FaultEvent(at, action, (group_a, group_b)))
        elif action == "heal":
            if body.strip():
                raise ValueError(
                    f"heal clears every link fault and takes no body, "
                    f"got {body!r}"
                )
            events.append(FaultEvent(at, "heal", ()))
        else:
            raise ValueError(f"unknown timeline action {action!r}")
    events.sort(key=lambda event: event.at)
    down = set()
    for event in events:
        if event.action in ("crash", "recover"):
            node = event.args[0]
            if (node in down) != (event.action == "recover"):
                raise ValueError(
                    f"{event.action}:{node}@{event.at:g}: replica {node} "
                    f"is {'down' if node in down else 'up'} then"
                )
            down ^= {node}
    return events


def check_replica_ids(events: Sequence[FaultEvent], num_replicas: int) -> None:
    """Raise ``ValueError`` if an event names a replica the cluster lacks."""
    for event in events:
        unknown = [node for node in event.nodes if node >= num_replicas]
        if unknown:
            raise ValueError(
                f"{event.action}@{event.at:g} names replica(s) {unknown}; "
                f"the cluster has ids 0..{num_replicas - 1}"
            )


#: Timeline action → method of the simulator's FaultInjector.
_ACTION_METHODS = {
    "crash": "crash",
    "recover": "recover",
    "delay": "delay_egress",
    "drop": "drop_egress",
    "partition": "partition",
    "heal": "heal",
}


def apply_timeline(
    injector: Any, events: Sequence[FaultEvent], start: float = 0.0
) -> None:
    """Schedule ``events`` on a simulation's ``FaultInjector``, their
    times counted from ``start`` (the measurement window's first second
    on the simulation clock)."""
    for event in events:
        method = getattr(injector, _ACTION_METHODS[event.action], None)
        if method is None:
            raise ValueError(
                f"injector {injector!r} does not support {event.action!r}"
            )
        method(*event.args, at=start + event.at)


# ----------------------------------------------------------------------
# Control-channel messages (parent ↔ replica processes)
# ----------------------------------------------------------------------
class LinkFault:
    """Egress shaping order for one replica process.

    ``targets`` is a tuple of destination node ids, or ``None`` for all
    known peers; ``clear`` removes shaping instead of installing it.
    """

    __slots__ = ("targets", "block", "drop", "delay", "clear")

    def __init__(
        self,
        targets: Optional[Tuple[int, ...]],
        block: bool = False,
        drop: float = 0.0,
        delay: float = 0.0,
        clear: bool = False,
    ) -> None:
        self.targets = targets
        self.block = block
        self.drop = drop
        self.delay = delay
        self.clear = clear

    def __reduce__(self):
        return (
            LinkFault,
            (self.targets, self.block, self.drop, self.delay, self.clear),
        )


def apply_link_fault(transport: Any, fault: LinkFault) -> None:
    """Install or clear a :class:`LinkFault` on a ``TcpTransport``."""
    if fault.clear:
        if fault.targets is None:
            transport.clear_link_faults()
        else:
            for dst in fault.targets:
                transport.clear_link_fault(dst)
        return
    targets = (
        fault.targets
        if fault.targets is not None
        else tuple(transport._peers.keys())
    )
    for dst in targets:
        if dst == transport.node_id:
            continue
        transport.set_link_fault(
            dst, block=fault.block, drop=fault.drop, delay=fault.delay
        )


# ----------------------------------------------------------------------
# Live fault injector
# ----------------------------------------------------------------------
FaultFn = Callable[..., Union[None, Awaitable[None]]]


class LiveFaultInjector:
    """Executes a parsed fault schedule against real replica processes.

    The simulator schedules the same :class:`FaultEvent` list on its
    calendar (:func:`apply_timeline`); here times are relative to the
    ``t0`` passed to :meth:`run` and execution is an asyncio task in the
    cluster parent.

    ``crash_fn(node_id)`` / ``recover_fn(node_id)`` act on processes
    (SIGKILL / respawn) and may be coroutines; ``link_fn(node_id,
    LinkFault)`` ships a shaping order to a replica process.
    """

    def __init__(
        self,
        crash_fn: FaultFn,
        recover_fn: FaultFn,
        link_fn: Callable[[int, LinkFault], None],
        replica_ids: Iterable[int],
        events: Sequence[FaultEvent],
    ) -> None:
        self._crash_fn = crash_fn
        self._recover_fn = recover_fn
        self._link_fn = link_fn
        self.replica_ids = list(replica_ids)
        self._schedule = sorted(events, key=lambda event: event.at)
        #: Executed faults, shaped like the simulator injector's ``log``:
        #: (t, action, payload).
        self.log: List[Tuple[float, str, Any]] = []
        self._t0: Optional[float] = None

    # -- execution ------------------------------------------------------
    async def run(self, t0: float) -> None:
        """Execute the schedule; ``at`` times are relative to ``t0``
        (loop-clock seconds, e.g. the start of the measurement window)."""
        self._t0 = t0
        loop = asyncio.get_running_loop()
        for event in self._schedule:
            remaining = t0 + event.at - loop.time()
            if remaining > 0:
                await asyncio.sleep(remaining)
            await self._execute(event)

    async def _execute(self, event: FaultEvent) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time() - (self._t0 or 0.0)
        action, args = event.action, event.args
        if action in ("crash", "recover"):
            fn = self._crash_fn if action == "crash" else self._recover_fn
            result = fn(args[0])
            if result is not None:
                await result
            self.log.append((now, action, args[0]))
        elif action in ("delay", "drop"):
            # LinkFault names its shaping fields after the two actions.
            self._link_fn(args[0], LinkFault(None, **{action: args[1]}))
            self.log.append((now, action, args))
        elif action == "partition":
            group_a, group_b = args
            for node_id in group_a:
                self._link_fn(node_id, LinkFault(group_b, block=True))
            for node_id in group_b:
                self._link_fn(node_id, LinkFault(group_a, block=True))
            pairs = tuple(sorted((a, b) for a in group_a for b in group_b))
            self.log.append((now, "partition", pairs))
        elif action == "heal":
            for node_id in self.replica_ids:
                self._link_fn(node_id, LinkFault(None, clear=True))
            self.log.append((now, "heal", None))

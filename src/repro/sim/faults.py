"""Fault injection: crash-stop failures, asynchrony, partitions.

Reproduces the two fault classes of the paper's robustness evaluation
(§VI-D):

* **crash-stop** — a replica halts at a chosen time and never recovers
  (the paper kills the process at t=30 s);
* **asynchrony** — every packet leaving a replica is delayed by a fixed
  amount (the paper runs ``tc qdisc change dev eth0 root netem delay
  100ms`` at t=30 s).

Partitions are additionally provided for adversarial-schedule tests.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from .events import Simulator
from .network import Network

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules faults against a :class:`~repro.sim.network.Network`."""

    def __init__(self, sim: Simulator, network: Network) -> None:
        self.sim = sim
        self.network = network
        self.log: List[Tuple[float, str, object]] = []

    # ------------------------------------------------------------------
    # Crash-stop
    # ------------------------------------------------------------------
    def crash(self, node_id: int, at: float = 0.0) -> None:
        """Crash ``node_id`` at absolute time ``at`` (now if in the past)."""
        self.sim.schedule_at(max(at, self.sim.now), self._do_crash, node_id)

    def _do_crash(self, node_id: int) -> None:
        self.network.crash(node_id)
        self.log.append((self.sim.now, "crash", node_id))

    def recover(self, node_id: int, at: float = 0.0) -> None:
        """Un-crash ``node_id`` at absolute time ``at`` (now if in the past).

        The node resumes sending and receiving with whatever protocol
        state it held when it crashed — crash-*recovery*, the fault shape
        the paper's crash-stop timelines (§VI-D) deliberately exclude but
        recovery experiments need.  In-flight messages addressed to the
        node while it was down stay dropped (the asynchronous network
        never redelivers).
        """
        self.sim.schedule_at(max(at, self.sim.now), self._do_recover, node_id)

    def _do_recover(self, node_id: int) -> None:
        self.network.recover(node_id)
        self.log.append((self.sim.now, "recover", node_id))

    # ------------------------------------------------------------------
    # Asynchrony (tc netem)
    # ------------------------------------------------------------------
    def delay_egress(self, node_id: int, extra: float, at: float = 0.0) -> None:
        """From time ``at``, delay all messages leaving ``node_id``."""
        self.sim.schedule_at(
            max(at, self.sim.now), self._do_delay, node_id, extra
        )

    def _do_delay(self, node_id: int, extra: float) -> None:
        self.network.set_egress_delay(node_id, extra)
        self.log.append((self.sim.now, "delay", (node_id, extra)))

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition(
        self, group_a: Iterable[int], group_b: Iterable[int], at: float = 0.0
    ) -> None:
        """Sever connectivity between two disjoint groups (both directions).

        Raises ``ValueError`` on overlapping groups: a shared member would
        generate a self-pair ``(a, a)`` and block a node from its own
        loopback path, which no real partition can do.  Duplicate members
        within one group are tolerated (the pair set is deduplicated).
        """
        set_a = set(group_a)
        set_b = set(group_b)
        overlap = set_a & set_b
        if overlap:
            raise ValueError(
                f"partition groups must be disjoint; both contain "
                f"{sorted(overlap)}"
            )
        pairs = sorted({(a, b) for a in set_a for b in set_b})
        self.sim.schedule_at(max(at, self.sim.now), self._do_partition, pairs)

    def _do_partition(self, pairs: List[Tuple[int, int]]) -> None:
        for a, b in pairs:
            self.network.block(a, b)
            self.network.block(b, a)
        self.log.append((self.sim.now, "partition", tuple(pairs)))

    def heal(self, at: float = 0.0) -> None:
        self.sim.schedule_at(max(at, self.sim.now), self._do_heal)

    def _do_heal(self) -> None:
        self.network.heal()
        self.log.append((self.sim.now, "heal", None))

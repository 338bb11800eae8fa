"""Queueing-theoretic resource servers.

Peak throughput in quorum-based systems is a queueing phenomenon: each
replica's CPU and NIC serve messages one at a time, and saturation of the
bottleneck resource caps system throughput (paper §VI-C).  We model each
resource as a FIFO server with deterministic per-job service times.

The implementation is O(1) per job: because service is FIFO and
non-preemptive, it suffices to track the time the server frees up
(``busy_until``); a job submitted at time *t* completes at
``max(t, busy_until) + service_time``.

A server only does that arithmetic and schedules nothing.  The one
caller that acts at completion is the simulated network: a message's
arrival step charges the receiver's CPU with :meth:`FifoServer.occupy`'s
arithmetic (inline, one frame less per message) and queues the service
step at the completion time itself.
"""

from __future__ import annotations

from .events import Simulator

__all__ = ["FifoServer", "CpuServer", "LinkServer"]


class FifoServer:
    """A single FIFO queueing server with deterministic service times.

    Used for both CPU service (message processing, crypto) and NIC
    serialization.  Tracks busy time for utilization reporting.
    """

    __slots__ = ("sim", "name", "_busy_until", "busy_time", "jobs_served", "rate")

    def __init__(self, sim: Simulator, name: str = "", rate: float = 1.0) -> None:
        if rate <= 0:
            raise ValueError(f"server rate must be positive, got {rate}")
        self.sim = sim
        self.name = name
        #: Speed factor: a job with nominal service time s occupies the
        #: server for s / rate.  rate=2.0 models e.g. two cores pooled.
        self.rate = rate
        self._busy_until = 0.0
        self.busy_time = 0.0
        self.jobs_served = 0

    def occupy(self, service_time: float) -> float:
        """Enqueue one job; returns its completion time.

        ``service_time`` is the nominal cost; the effective occupancy is
        divided by the server's ``rate``.
        """
        if service_time < 0:
            raise ValueError(f"negative service time: {service_time}")
        effective = service_time / self.rate
        start = self._busy_until
        now = self.sim.now
        if start < now:
            start = now
        done = start + effective
        self._busy_until = done
        self.busy_time += effective
        self.jobs_served += 1
        return done

    def occupy_many(self, service_time: float, jobs: int) -> float:
        """``jobs`` :meth:`occupy` calls in one (a broadcast's send cost).

        The occupancy is added once per job, not multiplied, so the
        server ends bit for bit as after ``jobs`` single calls.
        """
        if service_time < 0:
            raise ValueError(f"negative service time: {service_time}")
        if jobs <= 0:
            return self._busy_until
        effective = service_time / self.rate
        done = self._busy_until
        now = self.sim.now
        if done < now:
            done = now
        busy = self.busy_time
        for _ in range(jobs):
            done += effective
            busy += effective
        self._busy_until = done
        self.busy_time = busy
        self.jobs_served += jobs
        return done

    @property
    def backlog(self) -> float:
        """Seconds of queued work from the perspective of a new arrival."""
        gap = self._busy_until - self.sim.now
        return gap if gap > 0 else 0.0

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the server spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FifoServer {self.name!r} backlog={self.backlog:.6f}s>"


class CpuServer(FifoServer):
    """CPU of a node.  ``cores`` pools capacity (t2.medium has 2 vCores).

    Pooling cores into a single faster server is the standard fluid
    approximation; it preserves saturation points, which is what the
    reproduced figures measure.
    """

    def __init__(self, sim: Simulator, name: str = "cpu", cores: float = 2.0) -> None:
        super().__init__(sim, name=name, rate=cores)


class LinkServer(FifoServer):
    """Outgoing network link of a node.

    ``bandwidth`` is in bytes/second; serializing a message of ``size``
    bytes occupies the link for ``size / bandwidth`` seconds.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "nic",
        bandwidth: float = 30 * 1024 * 1024,
    ) -> None:
        super().__init__(sim, name=name, rate=1.0)
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.bandwidth = bandwidth


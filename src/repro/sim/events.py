"""Discrete-event simulation core.

The simulator drives every protocol in this repository.  It is a classic
calendar-queue engine: callbacks are scheduled at absolute simulated times
and executed in timestamp order.  Determinism is guaranteed by breaking
timestamp ties with a monotonically increasing sequence number, so two runs
with the same seed produce identical histories.

Two scheduling paths share one calendar queue:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`Event` handle that supports :meth:`Event.cancel` (lazy deletion);
* :meth:`Simulator.call_after` / :meth:`Simulator.call_at` are the **fast
  path** for the dominant schedule-deliver-execute cycle: the callback is
  stored directly in the heap entry, so no per-event ``Event`` object is
  allocated.  Use them wherever cancellation is never needed (network
  deliveries, resource-server completions, driver ticks).

Both paths allocate sequence numbers from the same counter, so mixing them
preserves the global execution order.

Collector policy
----------------
:meth:`Simulator.run` pauses CPython's cyclic garbage collector for the
duration of the loop and restores the caller's setting on the way out
(also when a callback raises; a caller that had it off gets it back off).
The event loop allocates millions of container objects — heap entries,
in-flight messages, signatures, certificates — that all die by reference
count; none of them forms a reference cycle, so every generational rescan
of the live heap finds nothing (``collected: 0``) while costing up to a
third of a large-N run's host time.  That zero-cycle invariant is what
makes the pause safe, and ``tests/sim/test_collector_policy.py`` pins it
for every system, an adversary tap and a reconfiguration run: a callback
path that starts leaking cycles fails there, and is fixed by breaking the
cycle at its source.  Whole *systems* are cyclic (replica ↔ transport ↔
handlers), so a dropped system is reclaimed only by a full collection; the
harnesses that build systems back to back call ``gc.collect()`` at those
scenario boundaries (:func:`repro.bench.parallel.run_unit` after each job,
:func:`repro.bench.peak.find_peak` before a probe that rebuilds) — never
inside a builder or ``setup_open_loop``, whose time is measured.  There is
deliberately no opt-out: one loop, one policy, for serial runs and pool
jobs alike.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, List, Optional

__all__ = ["Event", "Simulator", "SimulationError"]

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Effectively-unbounded event budget (used when ``max_events`` is None).
_NO_LIMIT = float("inf")


class SimulationError(RuntimeError):
    """Raised when the simulation is driven in an inconsistent way."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` and may be cancelled with
    :meth:`cancel`.  A cancelled event stays in the calendar queue but is
    skipped when its time comes (lazy deletion keeps scheduling O(log n));
    the owning simulator compacts the queue when cancelled entries come to
    dominate it (see :meth:`Simulator._compact`).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: "Optional[Simulator]" = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            sim._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} seq={self.seq}{state} fn={self.fn!r}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, print, "one simulated second elapsed")
        sim.run(until=10.0)

    The clock (:attr:`now`) only advances when :meth:`run` executes events;
    callbacks observe a consistent global time.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        # Heap entries are (time, seq, fn, args) tuples; cancellable events
        # are stored as (time, seq, None, event).  Tuple comparison is
        # C-level and — because seq is unique — never reaches the third
        # element, which keeps the hot loop an order of magnitude cheaper
        # than comparing rich objects.
        self._heap: List[tuple] = []
        self._seq: int = 0
        self._running: bool = False
        self.events_executed: int = 0
        #: Cancelled-but-not-yet-popped entries currently in the heap.
        self._cancelled_pending: int = 0
        #: Total queue compactions performed (observability / tests).
        self.compactions: int = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``.

        Returns a cancellable :class:`Event` handle; prefer
        :meth:`call_at` when cancellation is never needed.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, self)
        _heappush(self._heap, (time, seq, None, event))
        return event

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, fn, *args)

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fast path: schedule a non-cancellable ``fn(*args)`` at ``time``.

        No :class:`Event` object is allocated; the callback lives directly
        in the calendar-queue entry.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (time, seq, fn, args))

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fast path: schedule a non-cancellable ``fn(*args)`` after ``delay``."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (time, seq, fn, args))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Execute events in order.

        Runs until the queue drains, the clock passes ``until``, or
        ``max_events`` callbacks have executed — whichever comes first.
        Returns the number of events executed by this call.  When the loop
        stops on the horizon or an empty queue the clock is advanced to
        exactly ``until``, so subsequent measurements see a consistent
        window edge; when it stops on ``max_events`` the clock stays at the
        last executed event, because earlier events may still be queued.

        The cyclic garbage collector is paused while the loop runs (see
        "Collector policy" in the module docstring).
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        collector_was_enabled = gc.isenabled()
        gc.disable()
        executed = 0
        heap = self._heap
        pop = _heappop
        # Normalizing the stop conditions to sentinel values keeps the
        # per-event loop free of None checks; the comparisons below have
        # identical semantics (nothing exceeds +inf, nothing reaches
        # maxsize) to the optional parameters.
        horizon = float("inf") if until is None else until
        limit = _NO_LIMIT if max_events is None else max_events
        try:
            while heap:
                entry = heap[0]
                time = entry[0]
                if time > horizon:
                    break
                pop(heap)
                fn = entry[2]
                if fn is None:
                    event = entry[3]
                    if event.cancelled:
                        self._cancelled_pending -= 1
                        continue
                    # Detach before firing: a cancel() after the event has
                    # left the queue must not be counted as a queued
                    # cancellation (the entry is gone already).
                    event.sim = None
                    self.now = time
                    event.fn(*event.args)
                else:
                    self.now = time
                    fn(*entry[3])
                executed += 1
                if executed >= limit:
                    # Earlier events may still be queued, so the clock
                    # must not jump to ``until`` below.
                    return executed
        finally:
            self._running = False
            self.events_executed += executed
            if collector_was_enabled:
                gc.enable()
        if until is not None and self.now < until:
            self.now = until
        return executed

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        """Run until no events remain (bounded by ``max_events``)."""
        executed = self.run(max_events=max_events)
        if self._heap and executed >= max_events:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events"
            )
        return executed

    # ------------------------------------------------------------------
    # Calendar hygiene
    # ------------------------------------------------------------------
    #: Compaction never triggers below this queue size: tiny queues are
    #: cheap to scan at pop time and rebuilding them buys nothing.
    _COMPACT_MIN_HEAP = 64

    def _note_cancel(self) -> None:
        """Account one lazy cancellation; compact when they dominate.

        Timeout-heavy runs (batch-delay timers cancelled on every full
        batch, BFT request timeouts) otherwise grow the calendar without
        bound: a cancelled entry is only reclaimed when its — possibly
        far-future — timestamp is reached.
        """
        self._cancelled_pending += 1
        heap = self._heap
        if (
            len(heap) >= self._COMPACT_MIN_HEAP
            and self._cancelled_pending * 2 > len(heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In place matters: :meth:`run` holds a reference to the heap list
        across callbacks, and a callback may cancel enough events to
        trigger compaction mid-run.
        """
        heap = self._heap
        heap[:] = [
            entry for entry in heap
            if entry[2] is not None or not entry[3].cancelled
        ]
        heapq.heapify(heap)
        self._cancelled_pending = 0
        self.compactions += 1

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    @property
    def pending_live(self) -> int:
        """Queued events that will actually fire."""
        return len(self._heap) - self._cancelled_pending

    @property
    def pending_cancelled(self) -> int:
        """Queued entries that are lazily cancelled (awaiting reclaim)."""
        return self._cancelled_pending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={self.now:.6f} pending={self.pending} "
            f"(live={self.pending_live}, cancelled={self.pending_cancelled})>"
        )

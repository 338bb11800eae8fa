"""Collector policy for the live loop: full collections are paced.

A live replica's heap is mostly retained, *acyclic* state, which CPython
re-traverses in an oldest-generation collection whenever it has grown by
a quarter, finding nothing.  Xlogs keep columns, not an object graph per
settled payment, yet unpaced full collections still cost ``live_uniform``
13 % of its closed-loop ``pps``.  The payment path allocates no
reference cycles (``tests/transport/test_collector.py`` pins that, as
``tests/sim/test_collector_policy.py`` does for the simulator, whose own
policy — off inside ``Simulator.run`` — touches disjoint state).

Every started :class:`~repro.transport.tcp.TcpTransport` holds the policy
(:func:`hold` in ``start``, :func:`release` in ``close``; the first hold
adds one ``gc.callbacks`` entry, the last release removes it and puts
back the threshold it displaced): a full collection that took ``d``
seconds holds further *automatic* ones off — ``threshold2`` set to a
private mark — for ``d / FULL_COLLECTION_SHARE - d`` seconds; the first
young collection after that hands the displaced ``threshold2`` back, and
the interpreter's 25 %-growth rule decides again.  Full collections so
cost at most that share of wall time at any heap size, yet never stop: a
cycle that reaches the old generation is reclaimed within one paced
interval.  Generations 0 and 1 are untouched; the pacer itself never
collects, freezes or disables anything; a collection somebody asks for
explicitly is timed and paced like an automatic one; a ``threshold2``
that is not the mark is somebody else's (a harness pausing the old
generation around a latency window) and is left alone.  No opt-out.
Suppressing full collections, and freezing the heap after each, were
measured and rejected: README "Performance notes: collector policy".

CPython dependency: ``gc.callbacks`` reporting ``generation`` 0–2 (3.11,
the version CI pins); on an interpreter that reports no generation-2
automatic collections the pacer is inert, not wrong.
"""

from __future__ import annotations

import gc
from resource import RUSAGE_SELF, getrusage
from time import perf_counter
from typing import Dict, Optional

__all__ = ["FULL_COLLECTION_SHARE", "hold", "release", "reading"]

#: Bound on the share of wall time full collections may take — a bound,
#: not a tuning point: the prototype's ``live_uniform`` runs took 3 full
#: collections where the parent took 9.
FULL_COLLECTION_SHARE = 1 / 20

#: ``threshold2`` while automatic full collections are held off.  Private,
#: so that a value somebody else set is never mistaken for the pacer's.
_MARK = (1 << 30) + 1

_holds = 0
_displaced = 0  # the ``threshold2`` the mark stands in for
_began = _until = 0.0  # a full collection's start; the hold-off's end
_held_since: Optional[float] = None  # None: not holding off
_stats = {"full_collections": 0, "full_seconds": 0.0, "held_off_seconds": 0.0}


def _hand_back(now: float) -> None:
    """End the hold-off if ``threshold2`` is still the pacer's own mark
    (otherwise keep owing it: whoever read the mark may put it back)."""
    global _held_since
    young, middle, old = gc.get_threshold()
    if old == _MARK:
        gc.set_threshold(young, middle, _displaced)
        _stats["held_off_seconds"] += now - _held_since
        _held_since = None


def _on_collection(phase: str, info: Dict[str, int]) -> None:
    global _began, _displaced, _held_since, _until
    if info["generation"] == 2:
        if phase == "start":
            _began = perf_counter()
            return
        now = perf_counter()
        took = now - _began
        _stats["full_collections"] += 1
        _stats["full_seconds"] += took
        young, middle, old = gc.get_threshold()
        if old != _MARK:
            _displaced = old
            gc.set_threshold(young, middle, _MARK)
        if _held_since is None:
            _held_since = now
        _until = now + took / FULL_COLLECTION_SHARE - took
    elif phase == "stop" and _held_since is not None:
        now = perf_counter()
        if now >= _until:
            _hand_back(now)


def hold() -> None:
    """Pace full collections until the matching :func:`release`."""
    global _holds
    _holds += 1
    if _holds == 1:
        gc.callbacks.append(_on_collection)


def release() -> None:
    global _holds, _held_since
    _holds -= 1
    if _holds == 0:
        gc.callbacks.remove(_on_collection)
        if _held_since is not None:
            _hand_back(perf_counter())
            _held_since = None


def reading() -> Dict[str, float]:
    """The ``"collector"`` control reading: full collections timed while
    held, their seconds, the seconds automatic ones were held off, and
    the process's peak RSS (``ru_maxrss`` is KiB on Linux)."""
    held = 0.0 if _held_since is None else perf_counter() - _held_since
    return {**_stats, "held_off_seconds": _stats["held_off_seconds"] + held,
            "peak_rss_mb": round(getrusage(RUSAGE_SELF).ru_maxrss / 1024, 1)}

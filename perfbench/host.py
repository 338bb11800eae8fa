"""Host-speed reference: a fixed pure-Python kernel timed beside the work.

The hosts this benchmark runs on change speed under it — whole minutes
run 20–50 % slow, whatever the program does (README.md has the
measurements) — so seconds on the host's clock do not compare between
two runs, let alone two commits.  The CPU-bound metrics are therefore
reported in *reference seconds*: every slice of measured work is timed
on the host's clock, and so is a run of :func:`kernel` right beside it;
the slice's time is divided by how much slower than
``REFERENCE_NS_PER_ROUND`` the kernel ran.  All the work is counted and
nothing is trimmed: a change that makes the program slower anywhere
shows in full, a host that makes everything slower cancels.  The
uncorrected readings are printed beside every corrected one (``_raw``).
"""

from __future__ import annotations

import time
from typing import List

__all__ = ["REFERENCE_NS_PER_ROUND", "HostMeter", "kernel"]

#: What one round of :func:`kernel` takes on a quiet host of the class
#: the seed numbers were taken on (22 ms per 200 000 rounds).  It only
#: fixes the scale: on such a host a reference second is a second.
REFERENCE_NS_PER_ROUND = 110.0


def kernel(rounds: int) -> int:
    """Integer arithmetic and dict stores; no allocation that grows."""
    acc, table = 0, {}
    for i in range(rounds):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    return acc


class HostMeter:
    """Times :func:`kernel` on demand and keeps every reading."""

    def __init__(self, rounds: int) -> None:
        self.rounds = rounds
        #: Seconds every kernel run so far took.
        self.samples: List[float] = []

    def factor(self, seconds: float) -> float:
        """Host slowness: 1.0 = reference speed, 1.25 = a quarter slower."""
        return seconds * 1e9 / (self.rounds * REFERENCE_NS_PER_ROUND)

    def sample(self) -> float:
        """Run the kernel once; returns the host's slowness factor."""
        began = time.perf_counter()
        kernel(self.rounds)
        self.samples.append(time.perf_counter() - began)
        return self.factor(self.samples[-1])

    def mean_factor(self) -> float:
        return self.factor(sum(self.samples) / len(self.samples))

"""Network latency models.

The paper deploys replicas across four Amazon EC2 regions in Europe
(Frankfurt, Ireland, London, Paris) with ~20 ms inter-region round-trip
time and sub-millisecond intra-region latency (§VI-B).  The models here
produce one-way propagation delays for the simulator's network layer.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Callable, DefaultDict, Dict, List, Sequence, Tuple

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "RegionLatency",
    "EUROPE_REGIONS",
    "europe_wan",
]

#: The four EU regions used throughout the paper's evaluation.
EUROPE_REGIONS: Tuple[str, ...] = ("frankfurt", "ireland", "london", "paris")

#: One-way inter-region latency in seconds (≈ half the measured RTT).
#: Values approximate public EC2 inter-region measurements circa 2019.
_EU_ONE_WAY: Dict[Tuple[str, str], float] = {
    ("frankfurt", "ireland"): 0.0125,
    ("frankfurt", "london"): 0.0075,
    ("frankfurt", "paris"): 0.0050,
    ("ireland", "london"): 0.0055,
    ("ireland", "paris"): 0.0090,
    ("london", "paris"): 0.0045,
}

_INTRA_REGION_ONE_WAY = 0.00035  # ~0.7 ms RTT inside one region


class LatencyModel:
    """Base class: maps (src, dst) node ids to a one-way delay sample."""

    def sample(self, src: int, dst: int) -> float:
        raise NotImplementedError

    def delays(self, src: int, dsts: Sequence[int]) -> List[float]:
        """One delay per destination, drawn as :meth:`sample` would be in
        destination order (one call per broadcast)."""
        sample = self.sample
        return [sample(src, dst) for dst in dsts]

    def expected(self, src: int, dst: int) -> float:
        """Mean one-way delay (used by analytic helpers and tests)."""
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Every pair of nodes observes the same fixed one-way delay."""

    def __init__(self, delay: float = 0.01) -> None:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self.delay = delay

    def sample(self, src: int, dst: int) -> float:
        return self.delay

    def expected(self, src: int, dst: int) -> float:
        return self.delay


class _PairStreams:
    """Per-(src, dst) deterministic RNG streams.

    Each pair draws from its own :class:`random.Random` seeded by a pure
    function of ``(seed, src, dst)``; the n-th message src→dst receives
    the n-th draw of that stream regardless of how sends from *other*
    pairs interleave: a pair's draw index equals the number of prior
    src→dst messages, which is itself a deterministic function of the
    protocol history.  String seeds go through ``random.Random``'s
    SHA-512 path, so streams are uncorrelated and
    PYTHONHASHSEED-independent.
    """

    __slots__ = ("_seed", "_streams")

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._streams: Dict[Tuple[int, int], random.Random] = {}

    def stream(self, src: int, dst: int) -> random.Random:
        """The pair's stream, created on its first draw."""
        key = (src, dst)
        rng = self._streams.get(key)
        if rng is None:
            rng = self._streams[key] = random.Random(
                f"pair-latency:{self._seed}:{src}:{dst}"
            )
        return rng

    def uniform(self, src: int, dst: int, a: float, b: float) -> float:
        return self.stream(src, dst).uniform(a, b)


class UniformLatency(LatencyModel):
    """One-way delay drawn uniformly from [low, high], per message.

    ``pair_streams=True`` switches from one shared RNG to a
    deterministic per-(src, dst) stream (see :class:`_PairStreams`),
    making histories independent of global send interleaving (same
    distribution, different draws).
    """

    def __init__(
        self, low: float, high: float, seed: int = 0, pair_streams: bool = False
    ) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"invalid latency range [{low}, {high}]")
        self.low = low
        self.high = high
        self._rng = random.Random(seed)
        self._pairs = _PairStreams(seed) if pair_streams else None

    def sample(self, src: int, dst: int) -> float:
        pairs = self._pairs
        if pairs is not None:
            return pairs.uniform(src, dst, self.low, self.high)
        return self._rng.uniform(self.low, self.high)

    def expected(self, src: int, dst: int) -> float:
        return (self.low + self.high) / 2.0


class RegionLatency(LatencyModel):
    """Region-based WAN latency with multiplicative jitter.

    Nodes are assigned to named regions; pairs in the same region see the
    intra-region delay, others the configured inter-region delay.  Each
    message receives independent jitter of ±``jitter`` (fractional).
    """

    def __init__(
        self,
        assignment: Sequence[str],
        pair_delays: Dict[Tuple[str, str], float],
        jitter: float = 0.10,
        seed: int = 0,
        pair_streams: bool = False,
    ) -> None:
        self.assignment: List[str] = list(assignment)
        self.intra_delay = _INTRA_REGION_ONE_WAY
        self.jitter = jitter
        self._rng = random.Random(seed)
        self._random = self._rng.random
        #: Per-(src, dst) jitter streams; None draws every pair's jitter
        #: from the one shared RNG.
        self._pairs = _PairStreams(seed) if pair_streams else None
        #: src -> {dst: (base delay, the ``random`` its jitter is drawn
        #: from)}.
        self._rows: DefaultDict[
            int, Dict[int, Tuple[float, Callable[[], float]]]
        ] = defaultdict(dict)
        self._delays: Dict[Tuple[str, str], float] = {}
        for (a, b), delay in pair_delays.items():
            self._delays[(a, b)] = delay
            self._delays[(b, a)] = delay

    def region_of(self, node: int) -> str:
        return self.assignment[node % len(self.assignment)]

    def base_delay(self, src: int, dst: int) -> float:
        region_a = self.region_of(src)
        region_b = self.region_of(dst)
        if region_a == region_b:
            return self.intra_delay
        return self._delays[(region_a, region_b)]

    def _cell(self, src: int, dst: int) -> Tuple[float, Callable[[], float]]:
        """The pair's ``(base delay, random)``, ``random`` its stream's or
        the shared RNG's; built on its first draw, kept in ``src``'s row."""
        row = self._rows[src]
        cell = row.get(dst)
        if cell is None:
            pairs = self._pairs
            draw = self._random if pairs is None else pairs.stream(src, dst).random
            cell = row[dst] = (self.base_delay(src, dst), draw)
        return cell

    def sample(self, src: int, dst: int) -> float:
        jitter = self.jitter
        if jitter <= 0:
            return self.base_delay(src, dst)
        # ``random.uniform(-j, j)`` spelled out (``a + (b - a) * random()``),
        # as in :meth:`delays`.
        base, draw = self._cell(src, dst)
        return base * (1.0 + (-jitter + (jitter - -jitter) * draw()))

    def delays(self, src: int, dsts: Sequence[int]) -> List[float]:
        jitter = self.jitter
        if jitter <= 0:
            return super().delays(src, dsts)
        row = self._rows[src]
        cell = self._cell
        low = -jitter
        span = jitter - low
        out = []
        for dst in dsts:
            base, draw = row.get(dst) or cell(src, dst)
            out.append(base * (1.0 + (low + span * draw())))
        return out

    def expected(self, src: int, dst: int) -> float:
        return self.base_delay(src, dst)


def europe_wan(
    num_nodes: int, seed: int = 0, jitter: float = 0.10,
    pair_streams: bool = False,
) -> RegionLatency:
    """Latency model matching the paper's deployment (§VI-B).

    Nodes are spread uniformly (round-robin over a seeded shuffle) across
    the four EU regions, as the paper deploys replicas "randomly across the
    corresponding regions".  ``pair_streams=True`` draws each pair's
    jitter from an independent deterministic stream (the benchmark
    builders enable it).
    """
    rng = random.Random(seed)
    assignment = [EUROPE_REGIONS[i % len(EUROPE_REGIONS)] for i in range(num_nodes)]
    rng.shuffle(assignment)
    return RegionLatency(
        assignment, _EU_ONE_WAY, jitter=jitter, seed=seed + 1,
        pair_streams=pair_streams,
    )

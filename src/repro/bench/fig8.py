"""Fig. 8 — reconfiguration (join) latency vs system size (Appendix A-B).

Paper setup: a quiescent system grows from N=4 to N=80, one join at a
time.  Astro II's consensusless joins complete in ~0.2 s (the first join
is slightly slower because of connection establishment); BFT-SMaRt's
consensus-ordered reconfiguration is an order of magnitude slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..crypto.keys import Keychain
from ..reconfig.consensus_reconfig import measure_consensus_join_latency
from ..reconfig.membership import ReconfigReplica
from ..reconfig.views import View
from ..sim.events import Simulator
from ..sim.latency import europe_wan
from ..sim.network import Network
from .parallel import ScenarioJob, execute
from .report import format_table
from .scale import BenchScale, current_scale

__all__ = ["Fig8Result", "run_fig8", "measure_astro_join_series"]

#: Serialized xlog volume a joiner must fetch.  The paper's system is
#: quiescent but long-lived; this models a modest accumulated history.
STATE_BYTES = 2_000_000

#: One-time TCP/TLS connection establishment towards each member,
#: responsible for the elevated first data point in the paper's Fig. 8.
CONNECT_SETUP = 0.08


@dataclass
class Fig8Result:
    sizes: List[int]
    astro_latencies: List[float]
    bft_latencies: List[float]

    def table(self) -> str:
        headers = ["N (after join)", "Astro II join (s)", "BFT-SMaRt join (s)"]
        rows = [
            [size, f"{astro:.3f}", f"{bft:.3f}"]
            for size, astro, bft in zip(
                self.sizes, self.astro_latencies, self.bft_latencies
            )
        ]
        return format_table(
            headers, rows, title="Fig. 8 — reconfiguration (join) latency"
        )


def measure_astro_join_series(
    sizes: Sequence[int],
    seed: int = 0,
    state_bytes: int = STATE_BYTES,
) -> List[float]:
    """Sequential joins growing the system through ``sizes``.

    ``sizes`` lists the system size *after* each measured join; the system
    starts at ``sizes[0] - 1`` members.
    """
    if not sizes:
        return []
    max_size = max(sizes)
    sim = Simulator()
    network = Network(sim, latency=europe_wan(max_size + 1, seed=seed))
    keychain = Keychain(seed=seed + 5)
    initial = View(0, range(sizes[0] - 1))
    replicas: Dict[int, ReconfigReplica] = {}
    for node_id, key in enumerate(keychain.generate_replica_keys(max_size)):
        replicas[node_id] = ReconfigReplica(
            sim, node_id, network, initial, keychain, key,
            state_bytes=state_bytes,
        )
    latencies: List[float] = []
    current_view = initial
    first = True
    for size in sizes:
        joiner_id = size - 1
        joiner = replicas[joiner_id]
        joiner.view = current_view
        # Connection establishment to all current members (the fixed
        # overhead the paper observes on the first join; subsequent joins
        # in a long-lived deployment reuse warm infrastructure).
        setup = CONNECT_SETUP if first else CONNECT_SETUP / 8
        first = False
        start = sim.now + setup
        sim.schedule_at(start, joiner.request_join)
        sim.run_until_idle()
        if joiner.join_latency is None:
            raise RuntimeError(f"join of node {joiner_id} did not complete")
        latencies.append(joiner.join_latency + setup)
        current_view = joiner.view
    return latencies


def run_fig8(
    sizes: Sequence[int] = (),
    seed: int = 0,
    scale: Optional[BenchScale] = None,
    jobs: Optional[int] = None,
) -> Fig8Result:
    if scale is None:
        scale = current_scale()
    sizes = list(sizes) if sizes else list(scale.fig8_sizes)
    # The same up-front validation discipline as fig3/fig4's systems
    # guard: a malformed size list would otherwise surface as a bare
    # RuntimeError ("join did not complete") mid-series.
    if any(size < 2 for size in sizes):
        raise ValueError(
            f"fig8 sizes must be >= 2 (a join needs an existing member "
            f"to ask), got {sizes}"
        )
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(
            f"fig8 sizes must be strictly increasing (one system grows "
            f"through every size), got {sizes}"
        )
    # The Astro series grows one system through every size (inherently
    # sequential: one job); each consensus join is independent.
    units = [
        ScenarioJob(
            fn=measure_astro_join_series,
            params=dict(sizes=tuple(sizes), state_bytes=STATE_BYTES),
            seed=seed,
            tag="astro",
        )
    ] + [
        ScenarioJob(
            fn=measure_consensus_join_latency,
            params=dict(num_replicas=size, state_bytes=STATE_BYTES),
            seed=seed,
            tag=("bft", size),
        )
        for size in sizes
    ]
    results = execute(units, jobs=jobs, label=f"fig8[{scale.name}]")
    return Fig8Result(
        sizes=sizes, astro_latencies=results[0], bft_latencies=results[1:]
    )

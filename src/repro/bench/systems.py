"""Standard system builders for benchmarks and experiments.

One factory per evaluated system (Astro I, Astro II, BFT-SMaRt baseline),
with the paper's defaults: EU WAN placement, t2.medium-like resources,
batches of 256, N = 3f+1.

The Astro builders construct their WAN model with ``pair_streams=True``:
each (src, dst) pair draws its latency jitter from an independent
deterministic stream, which makes measured histories a pure function of
scenario + seed regardless of global send interleaving.  Every Astro
figure number and golden history is recorded under these draws (same
jitter distribution as the shared-RNG sampling, different draws).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..core.config import AstroConfig
from ..core.system import Astro1System, Astro2System
from ..consensus.config import BftConfig
from ..consensus.system import BftSystem
from ..sim.latency import europe_wan
from ..workloads.base import resolve_workload_name, workload_genesis

__all__ = ["build_astro1", "build_astro2", "build_bft", "SYSTEM_BUILDERS",
           "client_ids_of", "validate_systems", "credit_coalesce_window",
           "scaled_batch_delay", "CREDIT_COALESCE_AUTO_MIN_N"]

#: Spenders per replica in microbenchmarks; enough to spread load over
#: every representative without bloating per-client state.
CLIENTS_PER_REPLICA = 4


def scaled_batch_delay(num_replicas: int) -> float:
    """Batch window growing with deployment size.

    With client load spread over N representatives, each representative's
    share shrinks as 1/N; a fixed window would produce single-payment
    batches at large N and destroy the amortization §VI-A relies on.
    Growing the window keeps batches meaningful and matches the paper's
    observation that Astro latencies rise to 400–500 ms at N=100.
    """
    return 0.05 * max(1.0, num_replicas / 12.0)


#: Deployment size from which the Astro II builder coalesces CREDITs.
#: Below it coalescing saves little (few CREDIT targets per window) and
#: per-delivery unicasts stay byte-identical to the golden histories;
#: from it the CREDIT fan-in dominates NIC time.
CREDIT_COALESCE_AUTO_MIN_N = 50


def credit_coalesce_window(num_replicas: int) -> float:
    """CREDIT coalescing window (seconds) of the standard Astro II build,
    a function of N alone: per-delivery unicasts (0) below
    :data:`CREDIT_COALESCE_AUTO_MIN_N`; from there one batch window —
    every representative broadcasts about one batch per window, so each
    CREDIT bundle carries ~N per-delivery sub-batches (content and
    digests stay per-delivery)."""
    if num_replicas >= CREDIT_COALESCE_AUTO_MIN_N:
        return scaled_batch_delay(num_replicas)
    return 0.0


def _bench_genesis(num_clients: int) -> Dict[Any, int]:
    """Genesis for the benchmark builders, workload-aware.

    The balance regime must match the demand distribution the runner
    will resolve from the same ``REPRO_WORKLOAD`` knob (tight merchants
    under ``merchant``, ample balances otherwise); with the knob unset
    this is exactly ``uniform_genesis(num_clients)``.
    """
    return workload_genesis(resolve_workload_name(), num_clients)


def build_astro1(
    num_replicas: int,
    seed: int = 0,
    clients_per_replica: int = CLIENTS_PER_REPLICA,
    config: Optional[AstroConfig] = None,
) -> Astro1System:
    genesis = _bench_genesis(num_replicas * clients_per_replica)
    if config is None:
        config = AstroConfig(
            num_replicas=num_replicas,
            batch_delay=scaled_batch_delay(num_replicas),
        )
    return Astro1System(
        num_replicas=num_replicas,
        genesis=genesis,
        config=config,
        seed=seed,
        latency=europe_wan(
            num_replicas + len(genesis) + 64, seed=seed, pair_streams=True
        ),
    )


def build_astro2(
    num_replicas: int,
    num_shards: int = 1,
    seed: int = 0,
    clients_per_replica: int = CLIENTS_PER_REPLICA,
    config: Optional[AstroConfig] = None,
    credit_coalesce_delay: Optional[float] = None,
    track_kinds: bool = False,
) -> Astro2System:
    """Standard Astro II deployment.

    ``credit_coalesce_delay`` sets the cross-delivery CREDIT coalescing
    window explicitly; when omitted it is
    :func:`credit_coalesce_window` of N.  An explicit ``config`` wins
    over both — callers constructing their own config control every
    field.  ``track_kinds`` enables the network's
    per-message-class counters (CREDIT message accounting in perf tests).
    """
    total = num_replicas * num_shards
    genesis = _bench_genesis(total * clients_per_replica)
    if config is None:
        if credit_coalesce_delay is None:
            credit_coalesce_delay = credit_coalesce_window(num_replicas)
        config = AstroConfig(
            num_replicas=num_replicas,
            num_shards=num_shards,
            batch_delay=scaled_batch_delay(num_replicas),
            credit_coalesce_delay=credit_coalesce_delay,
        )
    return Astro2System(
        num_replicas=num_replicas,
        num_shards=num_shards,
        genesis=genesis,
        config=config,
        seed=seed,
        track_kinds=track_kinds,
        latency=europe_wan(
            total + len(genesis) + 64, seed=seed, pair_streams=True
        ),
    )


def build_bft(
    num_replicas: int,
    seed: int = 0,
    clients_per_replica: int = CLIENTS_PER_REPLICA,
    config: Optional[BftConfig] = None,
) -> BftSystem:
    genesis = _bench_genesis(num_replicas * clients_per_replica)
    return BftSystem(
        num_replicas=num_replicas,
        genesis=genesis,
        config=config,
        seed=seed,
        latency=europe_wan(num_replicas + len(genesis) + 64, seed=seed),
    )


SYSTEM_BUILDERS: Dict[str, Callable[..., Any]] = {
    "astro1": build_astro1,
    "astro2": build_astro2,
    "bft": build_bft,
}


def validate_systems(systems: Any) -> List[str]:
    """Validate a figure entry point's ``systems`` argument.

    Figures assemble their results by zipping ``systems`` against
    per-system job results, so a duplicate name would silently overwrite
    one system's row with another's and an unknown name would surface as
    a bare ``KeyError`` deep inside job enumeration.  Fail up front,
    naming the allowed systems.
    """
    names = list(systems)
    allowed = sorted(SYSTEM_BUILDERS)
    unknown = [name for name in names if name not in SYSTEM_BUILDERS]
    if unknown:
        raise ValueError(
            f"unknown system(s) {unknown!r}: allowed systems are {allowed}"
        )
    if len(set(names)) != len(names):
        duplicates = sorted({name for name in names if names.count(name) > 1})
        raise ValueError(
            f"duplicate system name(s) {duplicates!r}: results are keyed "
            f"by system, so each of {allowed} may appear at most once"
        )
    if not names:
        raise ValueError(f"systems must name at least one of {allowed}")
    return names


def client_ids_of(system: Any) -> List:
    """The client population of a system built by the factories above."""
    return sorted(system.genesis, key=repr)

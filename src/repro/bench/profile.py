"""cProfile entry point over a standard Astro II run.

The simulator's speed *is* reproduction capacity: every figure in the
paper comes out of the same schedule-deliver-execute cycle this profile
exercises.  Run it before and after touching any hot-path module::

    PYTHONPATH=src python -m repro.bench.profile
    PYTHONPATH=src python -m repro.bench.profile --rate 32000 --sort cumulative
    PYTHONPATH=src python -m repro.bench.profile --system astro1 --size 32

Prints the achieved simulated-payments-per-wall-clock-second (what
``perfbench``'s simulator workloads report as ``pps``), a phase breakdown
(crypto / network / scheduler / protocol / workload) so hot-path PRs can
cite where the time went, and the full profile table.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import os
import pstats
import time
from typing import Dict, Tuple

from .runner import run_open_loop
from .systems import SYSTEM_BUILDERS

__all__ = ["phase_breakdown", "main"]

#: Defaults of the "standard Astro II run": N = 3f+1 = 4, EU WAN latency,
#: offered load high enough to keep every replica's settle pipeline busy
#: without saturating the simulated system.
DEFAULT_SYSTEM = "astro2"
DEFAULT_NUM_REPLICAS = 4
DEFAULT_RATE = 16_000.0
DEFAULT_DURATION = 2.0
DEFAULT_WARMUP = 0.5
DEFAULT_SEED = 2

#: Phase classification of profile rows, by source path.  Order matters:
#: first match wins (network before the catch-all sim prefix).
_PHASES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("crypto", ("/repro/crypto/",)),
    (
        "network",
        (
            "/repro/sim/network.py",
            "/repro/sim/resources.py",
            "/repro/sim/latency.py",
            "/repro/sim/node.py",
        ),
    ),
    ("scheduler", ("/repro/sim/events.py",)),
    (
        "protocol",
        ("/repro/core/", "/repro/brb/", "/repro/consensus/", "/repro/reconfig/"),
    ),
    ("workload", ("/repro/workloads/", "/repro/bench/")),
)


def phase_breakdown(stats: pstats.Stats) -> Dict[str, float]:
    """Total in-function seconds per engine phase.

    Classifies every profiled function by its source path into crypto /
    network / scheduler / protocol / workload / other, so successive
    perf PRs can cite exactly which layer they moved.  Built-in heapq
    calls count as scheduler time (the calendar queue is the scheduler's
    data structure regardless of which module issues the push).
    """
    totals: Dict[str, float] = {name: 0.0 for name, _needles in _PHASES}
    totals["other"] = 0.0
    for (filename, _line, funcname), entry in stats.stats.items():
        tottime = entry[2]
        phase = "other"
        if filename == "~":
            if "heap" in funcname:
                phase = "scheduler"
        else:
            normalized = filename.replace(os.sep, "/")
            for name, needles in _PHASES:
                if any(needle in normalized for needle in needles):
                    phase = name
                    break
        totals[phase] += tottime
    return totals


def _print_phase_breakdown(stats: pstats.Stats) -> None:
    totals = phase_breakdown(stats)
    grand = sum(totals.values()) or 1.0
    print("[profile] phase breakdown (in-function seconds):")
    for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"[profile]   {name:<10} {seconds:7.3f}s  {100 * seconds / grand:5.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.profile",
        description="cProfile a standard simulator run and report pay/wall-sec.",
    )
    parser.add_argument(
        "--system", choices=sorted(SYSTEM_BUILDERS), default=DEFAULT_SYSTEM
    )
    parser.add_argument("-n", "--num-replicas", "--size", type=int,
                        dest="num_replicas", default=DEFAULT_NUM_REPLICAS,
                        help="deployment size N (--size is an alias)")
    parser.add_argument("--rate", type=float, default=DEFAULT_RATE,
                        help="offered payments/sec (simulated)")
    parser.add_argument("--duration", type=float, default=DEFAULT_DURATION)
    parser.add_argument("--warmup", type=float, default=DEFAULT_WARMUP)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--sort", default="tottime",
                        choices=["tottime", "cumulative", "ncalls"],
                        help="pstats sort column")
    parser.add_argument("--limit", type=int, default=30,
                        help="rows of the profile table to print")
    parser.add_argument("--no-profile", action="store_true",
                        help="timing only (no cProfile overhead)")
    args = parser.parse_args(argv)

    system = SYSTEM_BUILDERS[args.system](args.num_replicas, seed=args.seed)
    profiler = None if args.no_profile else cProfile.Profile()
    start = time.perf_counter()
    with profiler or contextlib.nullcontext():
        result = run_open_loop(
            system, rate=args.rate, duration=args.duration,
            warmup=args.warmup, seed=args.seed,
        )
    wall = time.perf_counter() - start

    pps = result.confirmed / wall if wall > 0 else float("inf")
    print(
        f"[profile] system={args.system} N={args.num_replicas} "
        f"rate={args.rate:.0f}/s window={args.duration}s"
    )
    print(
        f"[profile] confirmed={result.confirmed} wall={wall:.3f}s "
        f"simulated-payments/wall-clock-second={pps:,.0f}"
    )
    if profiler is not None:
        stats = pstats.Stats(profiler)
        _print_phase_breakdown(stats)
        stats.sort_stats(args.sort).print_stats(args.limit)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

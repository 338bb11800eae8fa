#!/usr/bin/env python3
"""Robustness demo: leader crash vs representative crash (§VI-D).

Reproduces the core of Fig. 5 at demo scale: ten closed-loop clients
drive (a) the consensus-based baseline and (b) Astro I; thirty seconds in
(scaled down here), a replica crashes — the *leader* for consensus, a
random representative for Astro.  Consensus throughput collapses to zero
until the view change completes; Astro sheds exactly one client's worth
of throughput.

Run:  python examples/robustness_demo.py
"""

from repro.bench.robustness import NUM_CLIENTS
from repro.bench.systems import build_astro1, build_bft
from repro.bench.timeline import run_timeline

SIZE = 10
WARMUP = 5.0
WINDOW = 20.0
FAULT_OFFSET = 6.0


def render(series, scale=1.0):
    """One-line ASCII sparkline of a throughput series."""
    top = max(max(series), 1.0)
    blocks = " .:-=+*#%@"
    return "".join(
        blocks[min(int(v / top * (len(blocks) - 1)), len(blocks) - 1)]
        for v in series
    )


def main() -> None:
    print(f"{SIZE} replicas, {NUM_CLIENTS} closed-loop clients, "
          f"crash at t={WARMUP + FAULT_OFFSET:.0f}s\n")

    bft = build_bft(SIZE, seed=3)
    bft_timeline = run_timeline(
        bft,
        num_clients=NUM_CLIENTS,
        warmup=WARMUP,
        window=WINDOW,
        timeline=f"crash:0@{FAULT_OFFSET}",  # replica 0 leads view 0
    )

    astro = build_astro1(SIZE, seed=3)
    astro_timeline = run_timeline(
        astro,
        num_clients=NUM_CLIENTS,
        warmup=WARMUP,
        window=WINDOW,
        timeline=f"crash:{NUM_CLIENTS - 1}@{FAULT_OFFSET}",
    )

    print("Per-second settled payments (one char per second, fault at ^):")
    marker = " " * int(FAULT_OFFSET) + "^"
    print(f"  Consensus-Leader : {render(bft_timeline.series)}")
    print(f"  Broadcast-Random : {render(astro_timeline.series)}")
    print(f"                     {marker}")

    print(f"\nConsensus: {bft_timeline.before_fault():.0f} pps before, "
          f"min {bft_timeline.min_after_fault():.0f} pps during view change, "
          f"{sum(bft_timeline.series[-3:]) / 3:.0f} pps at the end")
    print(f"Astro I:   {astro_timeline.before_fault():.0f} pps before, "
          f"{astro_timeline.after_fault():.0f} pps after "
          f"(lost ~1 client in {NUM_CLIENTS})")

    assert bft_timeline.min_after_fault() == 0.0
    assert astro_timeline.min_after_fault() > 0.0
    print("\nOK — no leader, no single point of collapse.")


if __name__ == "__main__":
    main()

"""The benchmark's noise check: ``PYTHONPATH=src python -m perfbench.noise``.

What the driver that accepts ``BENCHMARK.json`` does, done here first:
two sets of ten untraced runs of every workload, run ``i`` of either set
with seed ``i``, then ``perfbench.compare`` between the sets.  It passes
when every run is correct, no end-to-end metric is ``worse`` or
``unresolved`` (spread wider than its bound) and the simulators' exact
counts agree seed by seed.  Takes about 25 minutes; the sets are kept as
``perfbench/out/noise-a.json`` and ``noise-b.json``.
"""

from __future__ import annotations

import json
import os
import sys

from .compare import compare
from .run import OUT_DIR, load_benchmark, print_end_to_end, run_passes

SEEDS = list(range(1, 11))


def main() -> int:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    os.makedirs(OUT_DIR, exist_ok=True)
    sets = []
    all_correct = True
    for label in ("noise-a", "noise-b"):
        runs, ok = run_passes(names, SEEDS, benchmark["run_seconds"])
        all_correct = all_correct and ok
        print_end_to_end(benchmark, runs)
        sets.append({"label": label, "runs": runs})
        with open(os.path.join(OUT_DIR, f"{label}.json"), "w") as handle:
            json.dump(sets[-1], handle, indent=1)
    print()
    failures = compare(sets[0], sets[1], benchmark)
    if not all_correct:
        print("some runs were not correct")
    return 1 if failures or not all_correct else 0


if __name__ == "__main__":
    sys.exit(main())

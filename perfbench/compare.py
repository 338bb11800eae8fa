"""Compare two suite files: ``python -m perfbench.compare A.json B.json``.

``A`` is the base (the parent commit, or the first of two noise runs of
one commit); ``B`` is the change.  One row per workload × end-to-end
metric with both medians and quartiles and a verdict:

* ``unresolved``   — either side's spread (IQR ÷ median) is wider than
  the metric's bound, so the runs cannot tell;
* ``worse``        — B's median is worse than A's by more than the bound;
* ``better``       — B's median is better than A's by more than A's own
  interquartile distance;
* ``within-bound`` — anything else.

The readings printed beside the metrics (pooled p95/p99 of the live runs,
host-clock values of what is reported in reference seconds) follow their
workload's rows; their verdicts are shown and never counted.  ``pps`` on ``live_merchant_wal``
is goodput at a fixed offered rate, not a capacity: it is printed as
``fixed-rate`` and takes no part in the verdicts.  Then whether the
simulators' exact counts and simulated-time outputs match bit for bit
between runs of one seed, and the per-layer deltas of the traced passes
where both files have them.  Exits 1 on any ``worse``, ``unresolved`` or
count mismatch.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple

from .run import count_mismatches, load_benchmark
from .stats import quartiles

__all__ = ["compare", "verdict", "main"]

#: Readings printed beside the metrics (``# key = value`` lines) and
#: which way is better: the pooled latency percentiles the per-slice
#: medians complement, and the host-clock values behind the ones reported
#: in reference seconds.  Their verdicts are shown and never counted: a
#: host stall or a slow host moves them.
BESIDE = {
    "lat_p95_ms_pooled": "lower",
    "lat_p99_ms_pooled": "lower",
    "pps_raw": "higher",
    "cpu_us_per_payment_raw": "lower",
    "setup_s_raw": "lower",
}

#: (workload, metric) pairs that cannot improve and only move once the
#: system has collapsed: an open loop's goodput is its offered rate.
FIXED_RATE = {("live_merchant_wal", "pps")}


def verdict(
    base: List[float],
    change: List[float],
    better: str,
    bound: float,
    spread_gated: bool = True,
) -> Tuple[str, float]:
    """(verdict, change's median ÷ base's median)."""
    q1a, median_a, q3a = quartiles(base)
    q1b, median_b, q3b = quartiles(change)
    ratio = median_b / median_a if median_a else float("inf")
    for q1, median, q3 in ((q1a, median_a, q3a), (q1b, median_b, q3b)):
        if spread_gated and median and (q3 - q1) / median > bound:
            return "unresolved", ratio
    improvement = 1.0 - ratio if better == "lower" else ratio - 1.0
    if -improvement > bound:
        return "worse", ratio
    if improvement * median_a > (q3a - q1a):
        return "better", ratio
    return "within-bound", ratio


def _values(suite: Dict[str, Any], workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in suite["runs"][workload]]


def compare(base: Dict[str, Any], change: Dict[str, Any], benchmark: Dict[str, Any]) -> int:
    failures = 0
    print(f"base = {base['label']}  change = {change['label']}")
    print(
        f"{'workload':<18} {'metric':<20} {'base median [Q1..Q3]':>34} "
        f"{'change median [Q1..Q3]':>34} {'change/base':>11}  verdict"
    )
    for workload in (w["name"] for w in benchmark["workloads"]):
        if workload not in base["runs"] or workload not in change["runs"]:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a, b = _values(base, workload, name), _values(change, workload, name)
            # The contract gates set-up time on its median only.
            outcome, ratio = verdict(
                a, b, metric["better"], metric["bound"], name != "setup_s"
            )
            if (workload, name) in FIXED_RATE:
                outcome = "fixed-rate"
            if outcome in ("worse", "unresolved"):
                failures += 1
            q1a, ma, q3a = quartiles(a)
            q1b, mb, q3b = quartiles(b)
            print(
                f"{workload:<18} {name:<20} "
                f"{ma:>12.4f} [{q1a:>9.4f}..{q3a:>9.4f}] "
                f"{mb:>12.4f} [{q1b:>9.4f}..{q3b:>9.4f}] "
                f"{ratio:>11.4f}  {outcome} (n={len(a)}/{len(b)}, "
                f"bound {metric['bound']})"
            )
        for name, better in BESIDE.items():
            a = [r["info"][name] for r in base["runs"][workload] if name in r["info"]]
            b = [r["info"][name] for r in change["runs"][workload] if name in r["info"]]
            if a and b:
                outcome, ratio = verdict(a, b, better, 0.25)
                print(
                    f"{workload:<18} {name:<20} {quartiles(a)[1]:>12.4f} "
                    f"{'':>21} {quartiles(b)[1]:>12.4f} {'':>21} {ratio:>11.4f}  "
                    f"({outcome}; not counted)"
                )
    # Same-seed runs of a simulator, in either file, agree bit for bit.
    mismatches = count_mismatches(
        {w: base["runs"][w] + change["runs"].get(w, []) for w in base["runs"]}
    )
    failures += len(mismatches)
    for mismatch in mismatches:
        print(f"EXACT COUNTS DIFFER: {mismatch}")
    if not mismatches:
        print("exact simulator counts and simulated-time outputs: identical seed by seed")
    if base.get("traced") and change.get("traced"):
        print("\nper-layer (traced pass): base -> change (change/base)")
        for workload, record in base["traced"].items():
            other = change["traced"].get(workload)
            if other is None:
                continue
            print(f"  {workload}")
            for metric in benchmark["per_layer"]:
                name = metric["name"]
                a = record["metrics"][name]["value"]
                b = other["metrics"][name]["value"]
                if a == 0 and b == 0:
                    continue
                ratio = f"{b / a:.3f}" if a else "n/a"
                print(f"    {name:<44} {a:>14.4f} -> {b:>14.4f}  ({ratio})")
    print(f"\n{failures} problem(s)" if failures else "\nno worse, no unresolved")
    return 1 if failures else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    return compare(documents[0], documents[1], load_benchmark())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

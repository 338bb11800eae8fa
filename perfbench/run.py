"""perfbench — the repository's benchmark.

One run of one workload (what ``BENCHMARK.json``'s command does)::

    python3 perfbench/run.py --workload live_uniform --seed 1 --seconds 20 --trace 0

prints every measured value by name with its unit and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs the whole suite — every workload, three
interleaved untraced passes plus one traced pass, each in a fresh child
process — prints medians and spreads, applies the correctness gate and
writes ``perfbench/out/suite.json`` for ``perfbench.compare``::

    PYTHONPATH=src python -m perfbench.run [--seed S]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

#: Pinned so string-hash order (dict collision patterns, the simulated
#: digests) is the same in every run.
HASH_SEED = "0"


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def workload_specs() -> Dict[str, Any]:
    """name -> spec; sizes are fixed, later issues cite these names."""
    from perfbench.live import LiveSpec
    from perfbench.sim import SimSpec

    return {
        "live_uniform": LiveSpec(
            merchant=False, rate=2000.0, open_share=0.6, window=4096,
            closed_per_second=6000, lat_slice=1.0,
        ),
        "live_merchant_wal": LiveSpec(
            merchant=True, rate=150.0, open_share=1.0, window=0,
            closed_per_second=0, lat_slice=2.0,
        ),
        "sim_astro2_n32": SimSpec("astro2", rate=8000.0),
        "sim_astro1_n32": SimSpec("astro1", rate=2000.0),
    }


def host_calibration_ms() -> float:
    """Best of five kernel runs of 200 000 rounds, to read host drift."""
    from perfbench.host import kernel

    best = float("inf")
    for _ in range(5):
        began = time.process_time()
        kernel(200_000)
        best = min(best, (time.process_time() - began) * 1e3)
    return best


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_once(name: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    import asyncio

    from perfbench.live import LiveSpec, run_live
    from perfbench.sim import run_sim
    from perfbench.trace import Tracer

    spec = workload_specs()[name]
    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        if isinstance(spec, LiveSpec):
            tracer = Tracer() if traced else None
            result = asyncio.run(run_live(spec, seed, seconds, tracer, scratch))
            if tracer is not None:
                tracer.dump(
                    os.path.join(OUT_DIR, f"trace_{name}.json"),
                    {"workload": name, "seed": seed, "info": result["info"]},
                )
                tracer.uninstall()
        else:
            result = run_sim(spec, seed, seconds, traced)
            if traced:
                with open(os.path.join(OUT_DIR, f"trace_{name}.json"), "w") as handle:
                    json.dump(
                        {"workload": name, "seed": seed, "info": result["info"],
                         "values": result["values"]},
                        handle,
                    )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if traced:
        result["values"]["host.calib_ms"] = host_calibration_ms()
    # Shorter runs exist for the tests; their numbers mean nothing.
    result["info"]["comparable"] = seconds == load_benchmark()["run_seconds"]
    return result


def emit(result: Dict[str, Any], traced: bool) -> int:
    """Print the readings and the contract's final JSON line."""
    benchmark = load_benchmark()
    wanted = benchmark["per_layer" if traced else "end_to_end"]
    values = result["values"]
    metrics: Dict[str, Dict[str, Any]] = {}
    units = {
        m["name"]: m["unit"]
        for m in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    for name in sorted(values):
        print(f"{name:<48} {values[name]:>16.6f} {units.get(name, '')}")
    for key, value in sorted(result["info"].items()):
        print(f"# {key} = {json.dumps(value)}")
    problems = list(result["problems"])
    for metric in wanted:
        name = metric["name"]
        if name in values:
            value = values[name]
        elif traced:
            value = 0.0  # this layer does not run in this workload
        else:
            problems.append(f"end-to-end metric {name} was not measured")
            value = 0.0
        metrics[name] = {"value": value, "unit": metric["unit"]}
    for problem in problems:
        print(f"# PROBLEM: {problem}")
    correct = not problems and result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
#: Untraced passes of the suite, interleaved over the workloads.
PASSES = 3


def child_run(name: str, seed: int, seconds: int, traced: bool) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; parse what it printed."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
    ]
    began = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{name}: no output\n{done.stderr}")
    record = json.loads(lines[-1])
    record["exit_code"] = done.returncode
    record["wall_s"] = time.perf_counter() - began
    record["seed"] = seed
    record["problems"] = [l for l in lines if l.startswith("# PROBLEM")]
    record["info"] = {}
    for line in lines:  # emit()'s "# key = <json>" lines
        if line.startswith("# ") and " = " in line and line not in record["problems"]:
            key, _, value = line[2:].partition(" = ")
            record["info"][key] = json.loads(value)
    return record


def run_passes(
    names: List[str], seeds: List[int], seconds: int, traced: bool = False
) -> Tuple[Dict[str, List[Dict[str, Any]]], bool]:
    """One child run per workload per seed, interleaved: all workloads
    with ``seeds[0]``, then all with ``seeds[1]``, ...  Returns the
    records and whether every run was correct."""
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    ok = True
    for index, seed in enumerate(seeds):
        for name in names:
            record = child_run(name, seed, seconds, traced)
            runs[name].append(record)
            ok = ok and record["exit_code"] == 0 and record["correct"]
            print(
                f"[{'traced' if traced else 'pass'} {index + 1}/{len(seeds)}] "
                f"{name:<18} seed={seed} {record['wall_s']:.1f}s "
                f"correct={record['correct']} "
                f"failed={record['failed']}/{record['attempted']}",
                flush=True,
            )
            for problem in record["problems"]:
                print("   ", problem)
    return runs, ok


def count_mismatches(runs: Dict[str, List[Dict[str, Any]]]) -> List[str]:
    """Simulated outputs are a function of (commit, seed): runs of one
    workload with one seed must agree on them to the last bit."""
    found: List[str] = []
    for name, records in runs.items():
        by_seed: Dict[int, Any] = {}
        for record in records:
            counts = record["info"].get("counts")
            if counts is None:
                continue
            first = by_seed.setdefault(record["seed"], counts)
            if counts != first:
                found.append(
                    f"{name} seed {record['seed']}: counts {counts} != {first}"
                )
    return found


def print_end_to_end(
    benchmark: Dict[str, Any], runs: Dict[str, List[Dict[str, Any]]]
) -> None:
    from perfbench.stats import quartiles, spread

    print("\nEnd-to-end (median  [Q1 .. Q3]  spread=IQR/median  bound):")
    for name, records in runs.items():
        print(f"  {name}")
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            samples = [r["metrics"][key]["value"] for r in records]
            q1, median, q3 = quartiles(samples)
            wide = key != "setup_s" and spread(samples) > metric["bound"]
            print(
                f"    {key:<22} {median:>14.4f} {metric['unit']:<6} "
                f"[{q1:.4f} .. {q3:.4f}]  spread={spread(samples):.3f}  "
                f"bound={metric['bound']}"
                f"{'  <-- spread wider than bound' if wide else ''}"
            )


def run_suite(seed: int) -> int:
    """PASSES untraced passes and one traced pass of every workload."""
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    runs, ok = run_passes(names, [seed] * PASSES, seconds)
    traced_runs, traced_ok = run_passes(names, [seed], seconds, traced=True)
    traced = {name: records[0] for name, records in traced_runs.items()}
    ok = ok and traced_ok

    print_end_to_end(benchmark, runs)
    for mismatch in count_mismatches(runs):
        print(f"  GATE: {mismatch}")
        ok = False
    print("\nPer-layer (traced pass):")
    for metric in benchmark["per_layer"]:
        key = metric["name"]
        cells = "  ".join(
            f"{traced[n]['metrics'][key]['value']:>14.4f}" for n in names
        )
        print(f"  {key:<44} {metric['unit']:<6} {cells}")
    print("  " + " " * 51 + "  ".join(f"{n:>14.14}" for n in names))

    history = history_record(benchmark, runs, traced)
    path = os.path.join(OUT_DIR, "suite.json")
    with open(path, "w") as handle:
        json.dump(
            {"label": f"suite seed {seed}", "seconds": seconds, "runs": runs,
             "traced": traced, "history": history},
            handle, indent=1,
        )
    print(f"\nwrote {os.path.relpath(path, ROOT)}; gate {'passed' if ok else 'FAILED'}")
    print("for a run of record, append this line to perfbench/history.jsonl:")
    print(json.dumps(history))
    return 0 if ok else 1


def history_record(
    benchmark: Dict[str, Any],
    runs: Dict[str, List[Dict[str, Any]]],
    traced: Dict[str, Dict[str, Any]],
) -> Dict[str, Any]:
    """What one line of the committed ``history.jsonl`` holds."""
    from perfbench.stats import quartiles

    lines = 0
    for folder, _dirs, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as handle:
                    lines += sum(1 for _ in handle)
    head = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
        capture_output=True, text=True,
    )
    return {
        "commit": head.stdout.strip() or "unknown",
        "date": time.strftime("%Y-%m-%d"),
        "run_seconds": benchmark["run_seconds"],
        "passes": PASSES,
        "host.calib_ms": min(
            r["metrics"]["host.calib_ms"]["value"] for r in traced.values()
        ),
        "src_loc": lines,
        "medians": {
            workload: {
                metric["name"]: quartiles(
                    [r["metrics"][metric["name"]]["value"] for r in records]
                )[1]
                for metric in benchmark["end_to_end"]
            }
            for workload, records in runs.items()
        },
    }


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one run of this workload (default: the suite)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0,
                        help="one run's length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found beside perfbench/; nothing to "
              "benchmark here", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Hash randomisation is fixed at interpreter start: start again.
        arguments = sys.argv[1:] if argv is None else argv
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *arguments],
            dict(os.environ, PYTHONHASHSEED=HASH_SEED),
        )
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.workload is None:
        return run_suite(args.seed)
    if args.workload not in workload_specs():
        parser.error(f"unknown workload {args.workload!r}")
    seconds = args.seconds or load_benchmark()["run_seconds"]
    result = run_once(args.workload, args.seed, seconds, bool(args.trace))
    return emit(result, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

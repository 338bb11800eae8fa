"""Plain-text result tables in the shape the paper reports."""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

__all__ = [
    "format_table",
    "print_table",
    "format_series",
    "kilo",
    "merge_perf_report",
    "PERF_JSON",
]

#: The merged perf report, in the working directory.
PERF_JSON = "BENCH_perf.json"


def merge_perf_report(updates: Dict[str, Any], path: str = PERF_JSON) -> str:
    """Merge keys into ``BENCH_perf.json`` (create if absent).

    Every producer — the perf regression suite, the workload sweep,
    ``repro.bench.memory`` — writes through here, so sections never
    truncate each other regardless of execution order.
    """
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        report = None
    if not isinstance(report, dict):
        # Unreadable, invalid or not a JSON object: restart the report.
        report = {}
    report.update(updates)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return path


def kilo(value: float) -> str:
    """Format payments/sec the way the paper quotes them (e.g. '13.5K')."""
    if value >= 10_000:
        return f"{value / 1000:.1f}K"
    if value >= 1_000:
        return f"{value / 1000:.2f}K"
    return f"{value:.0f}"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned monospace table."""
    string_rows: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in string_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in string_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def print_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: Optional[str] = None,
) -> None:
    print()
    print(format_table(headers, rows, title=title))


def format_series(series: Sequence[float], precision: int = 0) -> str:
    """Compact rendering of a per-second throughput timeline."""
    return "[" + ", ".join(f"{v:.{precision}f}" for v in series) + "]"

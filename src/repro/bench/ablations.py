"""Ablation experiments for design choices the paper calls out.

* **Batching (§VI-A)** — "we use one signature per batch of 256 payments.
  With this batch size, Astro II's performance is only limited by
  available bandwidth."  The ablation sweeps the batch size and shows
  throughput collapsing when signatures stop being amortized.
* **Message complexity (§IV-A)** — Astro I's BRB is O(N²) messages,
  Astro II's O(N).  The ablation counts actual wire messages per settled
  payment at several sizes.

Both sweeps are embarrassingly parallel: every batch size (and every
(system, size) cell) is an independent job on the parallel backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.config import AstroConfig
from .jobs import exec_find_peak, exec_open_loop_messages
from .parallel import ScenarioJob, execute
from .report import format_table
from .scale import BenchScale, current_scale

__all__ = [
    "BatchingAblation",
    "run_batching_ablation",
    "MessageComplexityAblation",
    "run_message_complexity_ablation",
]


@dataclass
class BatchingAblation:
    size: int
    batch_sizes: List[int]
    peaks: List[float]

    def table(self) -> str:
        rows = [
            [batch, f"{peak:.0f}"]
            for batch, peak in zip(self.batch_sizes, self.peaks)
        ]
        return format_table(
            ["batch size", "Astro II peak (pps)"], rows,
            title=f"Ablation — signature batching (§VI-A), N={self.size}",
        )


def run_batching_ablation(
    size: int = 4,
    batch_sizes: Sequence[int] = (1, 16, 64, 256),
    seed: int = 0,
    scale: Optional[BenchScale] = None,
    jobs: Optional[int] = None,
) -> BatchingAblation:
    if scale is None:
        scale = current_scale()
    units = [
        ScenarioJob(
            fn=exec_find_peak,
            params=dict(
                system="astro2",
                size=size,
                start_rate=max(200.0, 20.0 * batch),
                duration=scale.peak_duration,
                warmup=scale.peak_warmup,
                refine_steps=2,
                payment_budget=scale.peak_payment_budget,
                max_probes=scale.peak_probe_cap,
                reuse_state=scale.peak_reuse_state,
                builder_kwargs=dict(
                    config=AstroConfig(num_replicas=size, batch_size=batch)
                ),
            ),
            seed=seed,
            tag=batch,
        )
        for batch in batch_sizes
    ]
    results = execute(
        units, jobs=jobs, label=f"ablation_batching[{scale.name}]"
    )
    return BatchingAblation(
        size=size,
        batch_sizes=list(batch_sizes),
        peaks=[result.peak_pps for result in results],
    )


@dataclass
class MessageComplexityAblation:
    sizes: List[int]
    #: system -> messages per settled payment, per size
    messages_per_payment: Dict[str, List[float]]

    def table(self) -> str:
        headers = ["N", "Astro I msgs/payment", "Astro II msgs/payment", "ratio"]
        rows = []
        for index, size in enumerate(self.sizes):
            astro1 = self.messages_per_payment["astro1"][index]
            astro2 = self.messages_per_payment["astro2"][index]
            rows.append(
                [size, f"{astro1:.1f}", f"{astro2:.1f}", f"{astro1 / astro2:.1f}x"]
            )
        return format_table(
            headers, rows,
            title="Ablation — BRB message complexity (O(N^2) vs O(N), §IV-A)",
        )


def run_message_complexity_ablation(
    sizes: Sequence[int] = (4, 10, 22, 46),
    rate: float = 2000.0,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> MessageComplexityAblation:
    units = [
        ScenarioJob(
            fn=exec_open_loop_messages,
            params=dict(
                system=name, size=size, rate=rate, duration=1.0, warmup=0.5
            ),
            seed=seed,
            tag=(name, size),
        )
        for size in sizes
        for name in ("astro1", "astro2")
    ]
    results = execute(units, jobs=jobs, label="ablation_messages")
    messages: Dict[str, List[float]] = {"astro1": [], "astro2": []}
    for unit, (result, sent) in zip(units, results):
        name, _size = unit.tag
        settled = max(result.confirmed, 1)
        messages[name].append(sent / settled)
    return MessageComplexityAblation(
        sizes=list(sizes), messages_per_payment=messages
    )

"""Configuration of the consensus baseline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..brb.batching import DEFAULT_BATCH_SIZE
from ..brb.quorums import max_faulty, validate_system_size

__all__ = ["BftConfig"]


@dataclass
class BftConfig:
    """Parameters of one BFT-SMaRt-style deployment.

    The baseline's CPU costs and its calibration against the paper's
    Fig. 3 anchors are constants of the cost model,
    :mod:`repro.crypto.costs` (``BFT_*``).
    """

    num_replicas: int = 4
    f: Optional[int] = None
    batch_size: int = DEFAULT_BATCH_SIZE
    #: Leader flushes a batch after this delay even if not full.
    batch_delay: float = 0.005
    #: Consensus instances the leader may run concurrently.  Mod-SMaRt
    #: decides instances sequentially; a small pipeline (>1) models its
    #: request-queue overlap.
    pipeline_depth: int = 2
    #: A replica asks for a view change when a pending request has not
    #: executed within this many seconds (BFT-SMaRt's requestTimeout).
    request_timeout: float = 2.0
    #: How often replicas scan for timed-out requests.
    timeout_check_interval: float = 0.25

    def __post_init__(self) -> None:
        if self.f is None:
            self.f = max_faulty(self.num_replicas)
        validate_system_size(self.num_replicas, self.f)
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")

    @property
    def quorum(self) -> int:
        return 2 * self.f + 1

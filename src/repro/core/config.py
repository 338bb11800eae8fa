"""Configuration shared by the Astro systems and the baseline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..brb.batching import DEFAULT_BATCH_SIZE
from ..brb.quorums import max_faulty, validate_system_size

__all__ = ["AstroConfig"]


@dataclass
class AstroConfig:
    """Parameters of one Astro deployment (one shard unless noted).

    Defaults match the paper's setup: N = 3f+1 replicas (§VI-A), batches
    of 256 payments (§VI-A), t2.medium-like resources (2 vCores, 30 MiB/s
    — set on the simulated nodes).  The CPU costs a replica charges are
    constants of the cost model, :mod:`repro.crypto.costs`.
    """

    num_replicas: int = 4
    #: Byzantine fault threshold; derived as (n-1)//3 when omitted.
    f: Optional[int] = None
    batch_size: int = DEFAULT_BATCH_SIZE
    #: Maximum time a payment waits for its batch to fill.  50 ms trades a
    #: little latency for much better amortization of per-batch signature
    #: work when client load is spread over many representatives.
    batch_delay: float = 0.05
    #: Astro II only: number of shards (§V).
    num_shards: int = 1
    #: Astro II only: CREDIT transport-coalescing window (seconds).  0
    #: (default) unicasts every CREDIT sub-batch right after the BRB
    #: delivery that settled it, exactly the paper's Listing 9 — up to N-1
    #: ``CreditMessage``s per replica per delivered batch, O(N²) credit
    #: messages per batch round.  > 0 buffers the signed per-delivery
    #: messages per beneficiary representative and ships one
    #: ``CreditBundle`` per (settling replica → representative) pair per
    #: window, amortizing the per-message envelope (``MESSAGE_OVERHEAD``,
    #: ``SEND_OVERHEAD``, wire headers) across its sub-batches.  Sub-batch
    #: composition, digests, and signatures are *unchanged* — they remain
    #: per-delivery, a pure function of the origin's batch stream, so
    #: every settler signs bit-identical digests and certificate minting
    #: is unaffected (merging sub-batch content across deliveries would
    #: anchor the cut points to local delivery times, which diverge under
    #: pair-varying WAN latency and leave f+1 CREDITs never matching).
    #: Bounded staleness: a credit waits at most this long before its
    #: CREDIT leaves, so dependency certificates lag by at most one window.
    credit_coalesce_delay: float = 0.0
    #: Maximum broadcast batches a representative keeps in flight;
    #: additional batches queue locally (flow control / backpressure).
    max_inflight_batches: int = 16
    #: Astro II only: re-ACK byte-identical duplicate PREPAREs in the
    #: signed BRB.  Needed by live clusters running with persistence (a
    #: recovered broadcaster relaunches pre-crash batches and must be
    #: able to re-collect its ACK quorum); off by default so simulator
    #: message flows stay byte-identical.
    brb_resend_acks: bool = False

    def __post_init__(self) -> None:
        if self.f is None:
            self.f = max_faulty(self.num_replicas)
        validate_system_size(self.num_replicas, self.f)
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.credit_coalesce_delay < 0:
            raise ValueError(
                f"credit_coalesce_delay must be >= 0, "
                f"got {self.credit_coalesce_delay}"
            )

    @property
    def quorum(self) -> int:
        return 2 * self.f + 1

"""Messages of the leader-based BFT consensus baseline.

Modelled on BFT-SMaRt's Mod-SMaRt [15]: a PROPOSE/WRITE/ACCEPT ordering
core plus a STOP/STOPDATA/SYNC view-change (synchronization phase).
Message and field names follow that lineage rather than PBFT's
pre-prepare/prepare/commit, since BFT-SMaRt is the paper's baseline.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..crypto.hashing import Digest

__all__ = [
    "ClientRequest",
    "Propose",
    "Write",
    "Accept",
    "Reply",
    "Stop",
    "StopData",
    "Sync",
]


class ClientRequest:
    """A payment request, multicast by the client to *all* replicas.

    BFT-SMaRt clients keep connections to every replica (§VI-B), so each
    replica pays the ingestion cost for every request — a structural cost
    driver absent from Astro, whose clients talk to one representative.
    """

    __slots__ = ("payment",)

    def __init__(self, payment: Any) -> None:
        self.payment = payment


class Propose:
    """Leader's batch proposal for consensus instance ``seq`` in ``view``."""

    __slots__ = ("view", "seq", "batch", "size")

    def __init__(self, view: int, seq: int, batch: Any, size: int) -> None:
        self.view = view
        self.seq = seq
        self.batch = batch
        self.size = size


class Write:
    """First all-to-all quorum phase (PBFT's prepare)."""

    __slots__ = ("view", "seq", "batch_digest")

    def __init__(self, view: int, seq: int, batch_digest: Digest) -> None:
        self.view = view
        self.seq = seq
        self.batch_digest = batch_digest


class Accept:
    """Second all-to-all quorum phase (PBFT's commit)."""

    __slots__ = ("view", "seq", "batch_digest")

    def __init__(self, view: int, seq: int, batch_digest: Digest) -> None:
        self.view = view
        self.seq = seq
        self.batch_digest = batch_digest


class Reply:
    """Per-replica execution acknowledgement to the client, who accepts a
    result once f+1 matching replies arrive."""

    __slots__ = ("payment_id",)

    def __init__(self, payment_id: Tuple) -> None:
        self.payment_id = payment_id


class Stop:
    """Vote to abandon the current regency and move to ``new_view``."""

    __slots__ = ("new_view",)

    def __init__(self, new_view: int) -> None:
        self.new_view = new_view


class StopData:
    """A replica's state handed to the new leader when entering a view.

    ``last_decided`` is the highest contiguously decided instance;
    ``proposals`` maps undecided seq -> (digest, batch, has_write_cert).
    ``size`` grows with pending state and system size, which is why view
    changes take longer in larger systems (§VI-D, Fig. 7).
    """

    __slots__ = ("new_view", "last_decided", "proposals", "size")

    def __init__(
        self,
        new_view: int,
        last_decided: int,
        proposals: Dict[int, Tuple[Digest, Any, bool]],
        size: int,
    ) -> None:
        self.new_view = new_view
        self.last_decided = last_decided
        self.proposals = proposals
        self.size = size


class Sync:
    """New leader's synchronization message installing ``new_view``.

    Carries the decided frontier and the re-proposals replicas must adopt
    before normal operation resumes.
    """

    __slots__ = ("new_view", "base_seq", "reproposals", "size")

    def __init__(
        self,
        new_view: int,
        base_seq: int,
        reproposals: Dict[int, Any],
        size: int,
    ) -> None:
        self.new_view = new_view
        self.base_seq = base_seq
        self.reproposals = reproposals
        self.size = size

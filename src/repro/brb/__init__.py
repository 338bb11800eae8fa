"""Byzantine reliable broadcast layer.

Two BRB implementations back the two Astro variants (§IV):
:class:`BrachaBroadcast` (echo-based, MACs, O(N²) messages, totality;
with ``install_view`` it is DBRB, Appendix A-C) and
:class:`SignedBroadcast` (digital signatures, O(N) messages, no totality).
Batching utilities implement the paper's 1- and 2-level batching scheme.
"""

from .batching import (
    DEFAULT_BATCH_DELAY,
    DEFAULT_BATCH_SIZE,
    Batch,
    Batcher,
)
from .bracha import BrachaBroadcast, BrbEcho, BrbPrepare, BrbReady
from .interface import BroadcastLayer, DeliverFn, Identifier
from .quorums import byzantine_quorum, max_faulty, validate_system_size
from .signed import SbAck, SbCommit, SbPrepare, SignedBroadcast

__all__ = [
    "DEFAULT_BATCH_DELAY",
    "DEFAULT_BATCH_SIZE",
    "Batch",
    "Batcher",
    "BrachaBroadcast",
    "BrbEcho",
    "BrbPrepare",
    "BrbReady",
    "BroadcastLayer",
    "DeliverFn",
    "Identifier",
    "byzantine_quorum",
    "max_faulty",
    "validate_system_size",
    "SbAck",
    "SbCommit",
    "SbPrepare",
    "SignedBroadcast",
]

"""Simulated cryptography substrate.

Provides structurally unforgeable signatures plus the simulator's cost
model (:mod:`repro.crypto.costs`: CPU costs, Astro I's MACs included, and
wire sizes), standing in for Go's ECDSA P-256 / HMAC implementations used
by the paper (§VI-A).  The substitution preserves the protocols'
behaviour because they rely only on what the stand-ins keep: signatures
are unforgeable and binding (``signatures``), and digests are
collision-free within a run (``hashing``).
"""

from . import costs
from .hashing import Digest, canonical, digest
from .keys import CryptoError, Keychain, KeyPair, client_owner, replica_owner
from .signatures import Signature, sign, verify

__all__ = [
    "costs",
    "Digest",
    "canonical",
    "digest",
    "CryptoError",
    "Keychain",
    "KeyPair",
    "client_owner",
    "replica_owner",
    "Signature",
    "sign",
    "verify",
]

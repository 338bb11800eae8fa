"""Key management for the simulated signature scheme.

Both clients and replicas hold an identifying public/secret key pair, with
replica keys distributed in advance (permissioned model, §III).  The
simulation replaces elliptic-curve math with *structural unforgeability*:
a signature embeds a token derived from the signer's secret, secrets live
only inside :class:`KeyPair` and the issuing :class:`Keychain`, and
Byzantine code in tests never receives another party's ``KeyPair`` — so a
valid signature can only originate from its claimed signer, which is the
property every protocol proof relies on.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Dict, Hashable, List

__all__ = ["KeyPair", "Keychain", "CryptoError", "replica_owner", "client_owner"]


@lru_cache(maxsize=None)
def replica_owner(node_id: int) -> tuple:
    """Canonical key-owner identity for a replica node.

    Memoized: the identity tuple is requested once per signed message on
    hot paths, and the replica-id population is small and fixed.
    """
    return ("replica", node_id)


def client_owner(client_id: Hashable) -> tuple:
    """Canonical key-owner identity for a client."""
    return ("client", client_id)


class CryptoError(Exception):
    """Raised on misuse of the simulated crypto layer."""


class KeyPair:
    """A signing identity.  Holding the object = holding the secret key."""

    __slots__ = ("owner", "_secret")

    def __init__(self, owner: Hashable, secret: int) -> None:
        self.owner = owner
        self._secret = secret

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KeyPair owner={self.owner!r}>"


class Keychain:
    """Generates key pairs and verifies signatures (the 'PKI').

    One keychain per simulated system.  ``generate`` may be called once per
    owner; the keychain remembers secrets so that any party can *verify* a
    signature (public-key operation) without being able to *create* one
    (no API exposes another owner's secret).
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._secrets: Dict[Hashable, int] = {}

    def generate(self, owner: Hashable) -> KeyPair:
        if owner in self._secrets:
            raise CryptoError(f"key pair already issued for {owner!r}")
        secret = self._rng.getrandbits(64)
        self._secrets[owner] = secret
        return KeyPair(owner, secret)

    def generate_replica_keys(self, count: int) -> List[KeyPair]:
        """Key pairs of replicas ``0 … count − 1``, indexed by node id.

        The keychain is RNG-sequential, so this walk — every replica, in
        node-id order — is what gives a simulated system and each process
        of a live cluster identical key material; a process keeps the
        entry at its own node id.
        """
        return [self.generate(replica_owner(i)) for i in range(count)]

    def _secret_of(self, owner: Hashable) -> int:
        try:
            return self._secrets[owner]
        except KeyError:
            raise CryptoError(f"no key pair issued for {owner!r}") from None

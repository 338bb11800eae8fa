"""Simulated digital signatures (ECDSA P-256 stand-in).

Astro II's broadcast layer, CREDIT messages, and dependency certificates
are built on digital signatures (§IV-A, §V).  The scheme here provides the
two properties those protocols need:

* **unforgeability** — producing a valid :class:`Signature` for content
  ``m`` under owner ``o`` requires ``o``'s :class:`~repro.crypto.keys.KeyPair`;
* **binding** — a signature verifies only against the exact content it
  signed (any mutation is detected).

CPU costs (`~repro.crypto.costs`) are charged by the protocol layer, not
here, because cost accounting belongs to the node whose CPU performs the
operation.
"""

from __future__ import annotations

from typing import Any, Hashable

from .hashing import canonical
from .keys import Keychain, KeyPair

__all__ = ["Signature", "sign", "verify"]


def _token(secret: int, content_canonical: Any) -> int:
    """Keyed digest standing in for the ECDSA signing equation."""
    return hash((secret, content_canonical)) & 0xFFFFFFFFFFFFFFFF


class Signature:
    """A detached signature over some content by ``signer``."""

    __slots__ = ("signer", "_token")

    def __init__(self, signer: Hashable, token: int) -> None:
        self.signer = signer
        self._token = token

    def __reduce__(self):
        # Compact cross-process pickling (TCP framing, WAL): two fields,
        # no slot-state dict.
        return (Signature, (self.signer, self._token))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Signature)
            and self.signer == other.signer
            and self._token == other._token
        )

    def __hash__(self) -> int:
        return hash((self.signer, self._token))

    def canonical(self) -> Any:
        return ("sig", self.signer, self._token)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Signature by {self.signer!r}>"


def sign(key: KeyPair, content: Any) -> Signature:
    """Sign ``content`` with ``key``; content must be canonicalizable."""
    return Signature(key.owner, _token(key._secret, canonical(content)))


def verify(keychain: Keychain, signature: Signature, content: Any) -> bool:
    """Check that ``signature`` is valid for ``content``.

    Returns ``False`` (never raises) for wrong content or forged tokens;
    raises :class:`~repro.crypto.keys.CryptoError` only if the claimed
    signer has no registered key, which indicates a harness bug rather
    than adversarial input.
    """
    if not isinstance(signature, Signature):
        return False
    secret = keychain._secret_of(signature.signer)
    return signature._token == _token(secret, canonical(content))

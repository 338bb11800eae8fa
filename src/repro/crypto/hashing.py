"""Content hashing for the simulated crypto layer.

Real SHA-256 would dominate the Python interpreter's time without adding
fidelity, so digests are computed structurally: a digest is a 64-bit hash
of the canonical representation of the message content.  Within a
simulation run this is collision-free with overwhelming probability, which
is the same guarantee a real hash provides; protocols only compare digests
for equality and use them as dictionary keys, so an ``int`` digest keeps
those operations O(1).

Digests sit on the simulator's hottest path (every broadcast phase keys
its quorum state by payload digest), so this module is written for CPython
speed:

* ``digest`` consults a per-object ``cached_digest`` attribute first; a
  batch memoizes it, over its payments' digests (computed on demand, not
  memoized: the batch's digest is the one read again), so a batch is
  hashed once;
* ``canonical`` dispatches on exact class identity and returns tuples of
  primitives *unchanged*, avoiding the recursive re-canonicalization the
  original implementation performed on every call.
"""

from __future__ import annotations

from typing import Any

__all__ = ["canonical", "digest", "Digest"]

#: A digest is an opaque 64-bit integer; protocols only compare equality.
Digest = int

_MASK = 0xFFFFFFFFFFFFFFFF

#: Classes whose instances are their own canonical form.  Exact-class
#: membership is two dict lookups — far cheaper than an isinstance chain —
#: and covers every value that actually appears in protocol messages.
_ATOMS = frozenset({type(None), bool, int, float, str, bytes})


def canonical(value: Any) -> Any:
    """Return a hashable canonical form of ``value``.

    Supports the value types used in protocol messages: primitives,
    tuples/lists, dicts (sorted by key), frozensets, and objects exposing
    ``canonical()``.  A tuple whose elements are all primitives is its own
    canonical form and is returned without copying.
    """
    cls = value.__class__
    if cls in _ATOMS:
        return value
    if cls is tuple:
        for item in value:
            if item.__class__ not in _ATOMS:
                return tuple(canonical(v) for v in value)
        return value
    if cls is list:
        return tuple(canonical(v) for v in value)
    if cls is dict:
        return tuple(sorted((canonical(k), canonical(v)) for k, v in value.items()))
    # Uncommon cases: primitive subclasses, sets, canonicalizable objects.
    if isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((canonical(k), canonical(v)) for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(map(canonical, value), key=repr))
    method = getattr(value, "canonical", None)
    if callable(method):
        return ("obj", type(value).__name__, method())
    raise TypeError(f"cannot canonicalize {type(value).__name__}: {value!r}")


def digest(value: Any) -> Digest:
    """Collision-free (within a run) 64-bit digest of ``value``.

    Objects exposing a ``cached_digest`` attribute (batches, payments)
    answer from it; everything else is canonicalized and hashed on the
    spot.
    """
    cached = getattr(value, "cached_digest", None)
    if cached is not None:
        return cached
    return hash(("digest", canonical(value))) & _MASK

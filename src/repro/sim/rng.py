"""Deterministic random-number utilities.

All stochastic behaviour in the simulator (latency jitter, workload
generation, replica placement) flows through seeded :class:`random.Random`
instances derived from a single root seed, so an entire experiment is
reproducible from one integer.  :func:`stable_rng` derives a child
stream by SHA-256, never ``hash()``: it is the same in every interpreter.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["stable_seed", "stable_rng"]


def stable_seed(seed: int, *names: object) -> int:
    """Hash-seed-independent child seed from ``(seed, names)``.

    A pure SHA-256 of the stable identity — never ``hash()`` — so the
    value is identical across fresh interpreters with different
    ``PYTHONHASHSEED`` values.  Used wherever derived entropy feeds
    behaviour that golden/byte-identity tests compare (e.g. the Byzantine
    adversary streams in :mod:`repro.adversary`).
    """
    material = repr((int(seed),) + tuple(str(n) for n in names)).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def stable_rng(seed: int, *names: object) -> random.Random:
    """A ``random.Random`` seeded by :func:`stable_seed` (hashseed-free)."""
    return random.Random(stable_seed(seed, *names))


"""The common workload surface and the ``REPRO_WORKLOAD`` knob.

Every payment workload generates ``(spender, beneficiary, amount)``
triples behind the same minimal :class:`Workload` protocol, so the
bench harness (``bench/systems.py`` genesis construction,
``bench/runner.py``/``bench/peak.py``/``bench/jobs.py`` open-loop
driving) and the live cluster's load generator
(``repro.transport.live``) are generic over the demand distribution.

``REPRO_WORKLOAD`` selects the distribution by name:

* ``uniform`` (default, golden-pinned) — the paper's §VI-B shape:
  round-robin spenders, uniform random beneficiaries, ample balances;
* ``zipf`` — hot-account skew on both ends of each payment
  ("Online Payment Network Design": real payment demand is Zipf-like);
* ``merchant`` — many-to-few purchase flows plus merchant payouts over
  *tight* merchant balances, the regime where Astro II's dependency
  certificates actually carry value.

Unset or ``uniform`` reproduces today's golden-pinned behavior exactly.
"""

from __future__ import annotations

import os
from typing import (
    Callable,
    Dict,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..core.payment import ClientId

__all__ = [
    "Workload",
    "WORKLOAD_NAMES",
    "resolve_workload_name",
    "make_workload",
    "workload_genesis",
]

Operation = Tuple[ClientId, ClientId, int]


@runtime_checkable
class Workload(Protocol):
    """Anything that yields payment operations for a load driver.

    ``next()`` returns the next ``(spender, beneficiary, amount)``
    triple, or ``None`` for a read-only operation the payment pipeline
    never sees (drivers skip those).  Workloads that support closed-loop
    clients additionally expose
    ``next_for(spender) -> (spender, beneficiary, amount)``.
    """

    def next(self) -> Optional[Operation]: ...


#: Names accepted by ``REPRO_WORKLOAD`` / ``make_workload``.
WORKLOAD_NAMES: Tuple[str, ...] = ("uniform", "zipf", "merchant")


def resolve_workload_name(value: Optional[str] = None) -> str:
    """Resolve the ``REPRO_WORKLOAD`` knob to a workload name.

    ``value`` overrides the environment (explicit caller choice); unset
    resolves to ``uniform``, the golden-pinned default.
    """
    raw = value if value is not None else os.environ.get("REPRO_WORKLOAD")
    if raw is None or not raw.strip():
        return "uniform"
    name = raw.strip().lower()
    if name not in WORKLOAD_NAMES:
        allowed = "|".join(WORKLOAD_NAMES)
        raise ValueError(
            f"REPRO_WORKLOAD must be one of {allowed}; got {raw!r}"
        )
    return name


def make_workload(
    name: str, clients: Sequence[ClientId], seed: int = 0
) -> Workload:
    """Instantiate the named workload over ``clients``.

    ``uniform`` constructs exactly the pre-refactor default
    (``UniformWorkload(clients, seed=seed)``), keeping unset-knob runs
    byte-identical to the golden histories.
    """
    from .merchant import MerchantWorkload
    from .uniform import UniformWorkload
    from .zipf import ZipfWorkload

    factories: Dict[str, Callable[..., Workload]] = {
        "uniform": UniformWorkload,
        "zipf": ZipfWorkload,
        "merchant": MerchantWorkload,
    }
    try:
        factory = factories[name]
    except KeyError:
        allowed = "|".join(WORKLOAD_NAMES)
        raise ValueError(
            f"unknown workload {name!r}: expected one of {allowed}"
        ) from None
    return factory(clients, seed=seed)


def workload_genesis(name: str, num_clients: int) -> Dict[ClientId, int]:
    """Genesis matching the named workload's balance regime.

    ``uniform`` and ``zipf`` use ample balances (§VI-B: "assume that all
    transactions can be settled immediately"); ``merchant`` starts its
    merchants tight so payouts must be funded by settled purchases
    (credit-funded spends / dependency certificates in Astro II).
    """
    from .merchant import merchant_genesis
    from .uniform import uniform_genesis

    if name == "merchant":
        return merchant_genesis(num_clients)
    if name in ("uniform", "zipf"):
        return uniform_genesis(num_clients)
    allowed = "|".join(WORKLOAD_NAMES)
    raise ValueError(f"unknown workload {name!r}: expected one of {allowed}")

"""Byzantine adversary subsystem: attacks, installation, live monitoring.

Layered on top of the benign tier (:mod:`repro.sim.faults`): behaviours
tamper with a replica's egress at the node send/broadcast boundary,
:func:`install_adversary` places them at the paper's f = ⌊(N−1)/3⌋ bound,
and :class:`InvariantMonitor` asserts the five safety invariants listed
in :mod:`repro.adversary.monitor` at correct replicas *while* the attack runs.  The monitor checks replica
views (:func:`~repro.adversary.monitor.replica_state_view`), taken from
simulated replicas by :meth:`InvariantMonitor.watch` or shipped by live
ones as their ``"state"`` reading.  The benchmark harness lives in
:mod:`repro.bench.adversary`.
"""

from .behaviors import (
    ALL_BEHAVIORS,
    ByzantineBehavior,
    CertStuffingRepresentative,
    EquivocatingRepresentative,
    ForgedCreditSettler,
    MuteReplica,
    OverloadClient,
    ReplayStaleTraffic,
    SelectiveDelivery,
)
from .controller import ATTACKS, Adversary, install_adversary, system_kind
from .monitor import InvariantMonitor

__all__ = [
    "ALL_BEHAVIORS",
    "ATTACKS",
    "Adversary",
    "ByzantineBehavior",
    "CertStuffingRepresentative",
    "EquivocatingRepresentative",
    "ForgedCreditSettler",
    "InvariantMonitor",
    "MuteReplica",
    "OverloadClient",
    "ReplayStaleTraffic",
    "SelectiveDelivery",
    "install_adversary",
    "system_kind",
]

"""Adversary installation: attack registry, placement, arming.

:func:`install_adversary` turns an attack descriptor into taps on the
last ``count`` replicas of a system (default ``count = f``, the paper's
fault bound).  Placement at the *end* of the sorted replica-id range is
deliberate: benchmark builders place representatives across the full
range, so the adversary set overlaps representatives without special
casing, and the correct-replica set is a stable prefix for the monitor
and for flood-victim selection.

Arming is either synchronous (``at`` not in the future — no event is
scheduled) or via one simulator event at ``at``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.system import Astro1System, Astro2System
from ..sim.rng import stable_rng
from .behaviors import ALL_BEHAVIORS, ByzantineBehavior

__all__ = ["ATTACKS", "Adversary", "install_adversary", "system_kind"]

#: Attack-name -> behaviour class, in catalog order.
ATTACKS: Dict[str, type] = {cls.name: cls for cls in ALL_BEHAVIORS}


def system_kind(system: Any) -> str:
    """The builder name of ``system`` (attack applicability is keyed on it)."""
    if isinstance(system, Astro2System):
        return "astro2"
    if isinstance(system, Astro1System):
        return "astro1"
    raise TypeError(
        f"adversary supports Astro systems, got {type(system).__name__}"
    )


class Adversary:
    """Handle over one installed attack: behaviours, placement, arm time."""

    def __init__(
        self,
        system: Any,
        attack: str,
        behaviors: Sequence[ByzantineBehavior],
        byzantine_ids: Tuple[int, ...],
        armed_at: float,
    ) -> None:
        self.system = system
        self.attack = attack
        self.behaviors = list(behaviors)
        self.byzantine_ids = byzantine_ids
        self.armed_at = armed_at

    @property
    def tampered(self) -> int:
        """Total tampering decisions across all Byzantine replicas."""
        return sum(behavior.tampered for behavior in self.behaviors)

    def _arm_all(self) -> None:
        for behavior in self.behaviors:
            behavior.arm()

    def remove(self) -> None:
        """Detach every tap (the replicas return to honest egress)."""
        for behavior in self.behaviors:
            behavior.replica.remove_egress_tap()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Adversary attack={self.attack} nodes={self.byzantine_ids} "
            f"at={self.armed_at}>"
        )


def install_adversary(
    system: Any,
    spec: Union[str, Dict[str, Any]],
    seed: int = 0,
) -> Adversary:
    """Install a Byzantine attack on ``system``.

    ``spec`` is an attack name or a dict with keys:

    * ``attack`` — name from :data:`ATTACKS` (required);
    * ``count`` — number of Byzantine replicas (default ``config.f``);
    * ``at`` — simulated arm time (default ``0.0``: armed immediately,
      with no scheduler event).

    Each behaviour draws from ``stable_rng(seed, "adversary", attack,
    node_id)`` — hashseed-independent and private per attacker.  The
    returned handle is also stored as ``system.adversary``.
    """
    if isinstance(spec, str):
        spec = {"attack": spec}
    attack = spec.get("attack")
    cls = ATTACKS.get(attack)
    if cls is None:
        raise ValueError(
            f"unknown attack {attack!r}: known attacks are {sorted(ATTACKS)}"
        )
    kind = system_kind(system)
    if kind not in cls.systems:
        raise ValueError(
            f"attack {attack!r} applies to {cls.systems}, not {kind!r}"
        )
    count: Optional[int] = spec.get("count")
    if count is None:
        count = system.config.f
    replica_ids = system.replica_node_ids
    if not 0 < count <= len(replica_ids) - 1:
        raise ValueError(
            f"adversary count must be in 1..{len(replica_ids) - 1} "
            f"(at least one correct replica), got {count}"
        )
    byzantine = tuple(replica_ids[-count:])
    behaviors: List[ByzantineBehavior] = []
    for node_id in byzantine:
        behavior = cls()
        behavior.attach(
            system.replica_by_node(node_id),
            system,
            stable_rng(seed, "adversary", attack, node_id),
            adversary_ids=byzantine,
        )
        behaviors.append(behavior)
    at = float(spec.get("at", 0.0))
    adversary = Adversary(system, attack, behaviors, byzantine, at)
    if at <= system.sim.now:
        adversary._arm_all()
    else:
        system.sim.schedule_at(at, adversary._arm_all)
    system.adversary = adversary
    return adversary

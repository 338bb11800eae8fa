"""System directory: clients → representatives, replicas → shards.

The paper assumes "the mapping of clients to their representative replicas
is publicly known" (§III); with sharding, shard membership is likewise
public knowledge (§V).  The directory is that shared knowledge — plain
data distributed out-of-band, not a trusted online service.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..brb.quorums import max_faulty
from .payment import ClientId

__all__ = ["Directory", "assemble_directory"]


class Directory:
    """Static mapping of clients, representatives, shards."""

    def __init__(self) -> None:
        self._rep_of: Dict[ClientId, int] = {}
        self._shard_of_replica: Dict[int, int] = {}
        self._shard_members: Dict[int, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Registration (system assembly time)
    # ------------------------------------------------------------------
    def register_shard(self, shard_id: int, members: Tuple[int, ...]) -> None:
        if shard_id in self._shard_members:
            raise ValueError(f"shard {shard_id} already registered")
        if not members:
            raise ValueError("a shard needs at least one replica")
        self._shard_members[shard_id] = tuple(members)
        for node_id in members:
            if node_id in self._shard_of_replica:
                raise ValueError(f"replica {node_id} already in a shard")
            self._shard_of_replica[node_id] = shard_id

    def register_client(self, client: ClientId, representative: int) -> None:
        if representative not in self._shard_of_replica:
            raise ValueError(f"representative {representative} is not a replica")
        self._rep_of[client] = representative

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def rep_of(self, client: ClientId) -> int:
        """Representative replica of ``client`` (s(·) notation, §V)."""
        return self._rep_of[client]

    @property
    def rep_map(self) -> Dict[ClientId, int]:
        """The client → representative mapping itself.

        Exposed for hot loops that look up representatives per payment;
        treat as read-only.  The dict object is stable for the lifetime of
        the directory (reconfiguration mutates it in place), so callers
        may cache the reference.
        """
        return self._rep_of

    def knows_client(self, client: ClientId) -> bool:
        return client in self._rep_of

    def shard_of_replica(self, node_id: int) -> int:
        return self._shard_of_replica[node_id]

    def shard_of_client(self, client: ClientId) -> int:
        return self._shard_of_replica[self._rep_of[client]]

    def members(self, shard_id: int) -> Tuple[int, ...]:
        return self._shard_members[shard_id]

    def faulty_bound(self, shard_id: int) -> int:
        """f for one shard — the N/3 bound applies per shard (§V)."""
        return max_faulty(len(self._shard_members[shard_id]))

    @property
    def shard_ids(self) -> List[int]:
        return sorted(self._shard_members)

    @property
    def clients(self) -> List[ClientId]:
        return list(self._rep_of)

    def clients_of_shard(self, shard_id: int) -> List[ClientId]:
        return [
            client
            for client, rep in self._rep_of.items()
            if self._shard_of_replica[rep] == shard_id
        ]


def assemble_directory(
    clients: Iterable[ClientId],
    per_shard: int,
    num_shards: int = 1,
    rep_assignment: Optional[Mapping[ClientId, int]] = None,
    shard_assignment: Optional[Mapping[ClientId, int]] = None,
) -> Directory:
    """The directory of a deployment — the one client-assignment rule.

    Shard ``s`` holds node ids ``s·k … (s+1)·k − 1`` for ``k =
    per_shard``.  Clients, in ``repr``-sorted order, deal round-robin over
    the shards and, within a shard, round-robin over its members; with
    one shard that is Astro I's plain round-robin over all replicas.
    ``shard_assignment`` pins a client's shard, ``rep_assignment`` its
    representative outright.  Pure in its arguments, so every simulated
    system and every process of a live cluster derives the same map
    independently.
    """
    directory = Directory()
    for shard in range(num_shards):
        directory.register_shard(
            shard,
            tuple(range(shard * per_shard, (shard + 1) * per_shard)),
        )
    members_of = directory._shard_members
    for position, client in enumerate(sorted(clients, key=repr)):
        if rep_assignment is not None:
            representative = rep_assignment[client]
        else:
            if shard_assignment is not None:
                shard = shard_assignment[client]
            else:
                shard = position % num_shards
            slot = (position // num_shards) % per_shard
            representative = members_of[shard][slot]
        directory.register_client(client, representative)
    return directory

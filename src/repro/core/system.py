"""System assembly: wire replicas, clients, and the network together.

These classes are the primary public entry points of the library:

* :class:`Astro1System` — full replication, Bracha BRB (Astro I);
* :class:`Astro2System` — signed BRB with dependency certificates,
  optionally sharded (Astro II, §V).

Both — and the consensus baseline's
:class:`~repro.consensus.system.BftSystem` — build on
:class:`SimulatedSystem`: one simulator, network, fault injector,
genesis and client-side payment numbering, with the same driving surface
(``submit`` / ``add_client_node`` / ``settle_all`` / state
introspection), so workloads and benchmarks are generic over the design.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

from ..crypto.keys import Keychain
from ..sim.events import Simulator
from ..sim.faults import FaultInjector
from ..sim.latency import LatencyModel, europe_wan
from ..sim.network import Network
from ..sim.node import Node
from .astro1 import Astro1Replica
from .astro2 import Astro2Replica
from .client import ClientNode, ConfirmCallback
from .config import AstroConfig
from .directory import assemble_directory
from .interning import ClientInterner
from .payment import ClientId, Payment
from .replica import AstroReplicaBase

__all__ = ["Astro1System", "Astro2System", "SimulatedSystem"]


class SimulatedSystem:
    """What every simulated deployment owns, whatever it agrees with.

    The simulator, the network (EU-WAN latency unless told otherwise),
    the fault injector, a private copy of the genesis, the replica list
    and the client-side sequence numbering.  Subclasses build the
    replicas and add what differs: how a payment reaches them, how a
    confirmation is observed, when the run is quiescent.
    """

    def __init__(
        self,
        genesis: Mapping[ClientId, int],
        config: Any,
        total_replicas: int,
        sim: Optional[Simulator],
        network: Optional[Network],
        latency: Optional[LatencyModel],
        seed: int,
        track_kinds: bool,
    ) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.config = config
        self.genesis: Dict[ClientId, int] = dict(genesis)
        if network is None:
            if latency is None:
                latency = europe_wan(total_replicas, seed=seed)
            network = Network(self.sim, latency=latency, track_kinds=track_kinds)
        self.network = network
        self.faults = FaultInjector(self.sim, self.network)
        self.replicas: List[Any] = []
        self._next_seq: Dict[ClientId, int] = {}
        #: Client nodes are numbered after the replicas.
        self._next_client_node = total_replicas

    def next_seq(self, client: ClientId) -> int:
        """Allocate the client's next sequence number (Listing 1 l.6)."""
        seq = self._next_seq.get(client, 0) + 1
        self._next_seq[client] = seq
        return seq

    def make_payment(
        self, spender: ClientId, beneficiary: ClientId, amount: int
    ) -> Payment:
        return Payment(spender, self.next_seq(spender), beneficiary, amount)

    def run(self, until: float) -> None:
        self.sim.run(until=until)

    def replica(self, index: int) -> Any:
        return self.replicas[index]

    def balances_at(self, index: int = 0) -> Dict[ClientId, int]:
        state = self.replicas[index].state
        return {client: balance for client, balance, _, _ in state.accounts()}


class _AstroSystemBase(SimulatedSystem):
    """Construction and driving logic shared by both Astro variants."""

    replicas: List[AstroReplicaBase]

    def __init__(
        self,
        genesis: Mapping[ClientId, int],
        config: AstroConfig,
        sim: Optional[Simulator],
        network: Optional[Network],
        latency: Optional[LatencyModel],
        seed: int,
        track_kinds: bool,
        rep_assignment: Optional[Mapping[ClientId, int]],
        shard_assignment: Optional[Mapping[ClientId, int]],
    ) -> None:
        super().__init__(
            genesis,
            config,
            config.num_replicas * config.num_shards,
            sim,
            network,
            latency,
            seed,
            track_kinds,
        )
        self.directory = assemble_directory(
            self.genesis,
            config.num_replicas,
            config.num_shards,
            rep_assignment,
            shard_assignment,
        )
        #: Cached client → representative dict (stable object, hot path).
        self._rep_map = self.directory.rep_map
        #: Lazily filled client → representative *replica object* cache;
        #: representatives never change after registration, only new
        #: clients appear (which simply miss once).
        self._rep_replica: Dict[ClientId, AstroReplicaBase] = {}
        self._replica_by_node: Dict[int, AstroReplicaBase] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _register(self, replica: AstroReplicaBase) -> None:
        self.replicas.append(replica)
        self._replica_by_node[replica.node_id] = replica

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def submit(self, spender: ClientId, beneficiary: ClientId, amount: int) -> Payment:
        """Create and inject a payment at the spender's representative.

        Equivalent to ``submit_payment(make_payment(...))`` with the
        intermediate calls inlined — load drivers call this once per
        injected payment.
        """
        seqs = self._next_seq
        seq = seqs.get(spender, 0) + 1
        seqs[spender] = seq
        payment = Payment(spender, seq, beneficiary, amount)
        replica = self._rep_replica.get(spender)
        if replica is None:
            replica = self._rep_replica[spender] = self._replica_by_node[
                self._rep_map[spender]
            ]
        replica.submit_local(payment)
        return payment

    def submit_payment(self, payment: Payment) -> None:
        representative = self.directory.rep_of(payment.spender)
        self._replica_by_node[representative].submit_local(payment)

    def add_client_node(
        self, client: ClientId, on_confirm: Optional[ConfirmCallback] = None
    ) -> ClientNode:
        """Run ``client`` as a real simulated process (closed-loop driving)."""
        representative = self.directory.rep_of(client)
        node_id = self._next_client_node
        self._next_client_node += 1
        node = ClientNode(
            self.sim,
            node_id,
            client,
            self.network,
            representative,
            on_confirm=on_confirm,
        )
        self._replica_by_node[representative].client_nodes[client] = node_id
        return node

    def add_confirm_hook(self, hook: Callable[[Payment, float], None]) -> None:
        """Observe settlements at each spender's representative."""
        for replica in self.replicas:
            replica.confirm_hooks.append(hook)

    def remove_confirm_hook(self, hook: Callable[[Payment, float], None]) -> None:
        """Detach a hook added by :meth:`add_confirm_hook` (idempotent)."""
        for replica in self.replicas:
            try:
                replica.confirm_hooks.remove(hook)
            except ValueError:
                pass

    def settle_all(self, max_events: int = 50_000_000) -> None:
        """Run the simulation until no events remain (quiescence)."""
        self.sim.run_until_idle(max_events=max_events)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def replica_node_ids(self) -> List[int]:
        """Node ids of all replicas, ascending."""
        return sorted(self._replica_by_node)

    def replica_by_node(self, node_id: int) -> AstroReplicaBase:
        return self._replica_by_node[node_id]

    def representative_of(self, client: ClientId) -> AstroReplicaBase:
        return self._replica_by_node[self.directory.rep_of(client)]

    def settled_counts(self) -> List[int]:
        return [replica.settled_count for replica in self.replicas]


class Astro1System(_AstroSystemBase):
    """Astro I deployment: N replicas, full replication, Bracha BRB."""

    def __init__(
        self,
        num_replicas: int = 4,
        genesis: Optional[Mapping[ClientId, int]] = None,
        config: Optional[AstroConfig] = None,
        sim: Optional[Simulator] = None,
        network: Optional[Network] = None,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        track_kinds: bool = False,
        rep_assignment: Optional[Mapping[ClientId, int]] = None,
    ) -> None:
        if config is None:
            config = AstroConfig(num_replicas=num_replicas)
        if config.num_shards != 1:
            raise ValueError("Astro I does not support sharding (§IV-A)")
        super().__init__(
            genesis if genesis is not None else {},
            config,
            sim,
            network,
            latency,
            seed,
            track_kinds,
            rep_assignment,
            None,
        )
        members = self.directory.members(0)
        # One ClientId ⇄ index interner for all replicas: their account
        # slabs share the per-client mapping cost.
        interner = ClientInterner(self.genesis)
        for node_id in members:
            # The simulator Node is the replica's transport backend; the
            # replica itself is a plain protocol object (the same object
            # runs over repro.transport.tcp in a live cluster).
            transport = Node(self.sim, node_id, self.network)
            self._register(
                Astro1Replica(
                    transport,
                    config,
                    dict(self.genesis),
                    self.directory,
                    list(members),
                    interner=interner,
                )
            )

    def total_value(self, index: int = 0) -> int:
        """Sum of balances at one replica (conserved in Astro I)."""
        return self.replicas[index].state.total_balance()


class Astro2System(_AstroSystemBase):
    """Astro II deployment: ``num_shards`` shards of ``num_replicas`` each.

    ``config.num_replicas`` is the *per-shard* size, matching the paper's
    "each shard consists of N = 52 replicas" (§VI-C2).  With one shard
    this is exactly the non-sharded Astro II of §IV.
    """

    def __init__(
        self,
        num_replicas: int = 4,
        num_shards: int = 1,
        genesis: Optional[Mapping[ClientId, int]] = None,
        config: Optional[AstroConfig] = None,
        sim: Optional[Simulator] = None,
        network: Optional[Network] = None,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        track_kinds: bool = False,
        keychain: Optional[Keychain] = None,
        rep_assignment: Optional[Mapping[ClientId, int]] = None,
        shard_assignment: Optional[Mapping[ClientId, int]] = None,
    ) -> None:
        if config is None:
            config = AstroConfig(num_replicas=num_replicas, num_shards=num_shards)
        super().__init__(
            genesis if genesis is not None else {},
            config,
            sim,
            network,
            latency,
            seed,
            track_kinds,
            rep_assignment,
            shard_assignment,
        )
        self.keychain = keychain if keychain is not None else Keychain(seed=seed + 17)
        keys = self.keychain.generate_replica_keys(
            config.num_replicas * config.num_shards
        )
        for shard in range(config.num_shards):
            shard_clients = set(self.directory.clients_of_shard(shard))
            shard_genesis = {
                client: amount
                for client, amount in self.genesis.items()
                if client in shard_clients
            }
            # Replicas of one shard share identical genesis, so they
            # share one interner (cross-shard ids are interned lazily).
            interner = ClientInterner(shard_genesis)
            for node_id in self.directory.members(shard):
                transport = Node(self.sim, node_id, self.network)
                self._register(
                    Astro2Replica(
                        transport,
                        config,
                        dict(shard_genesis),
                        self.directory,
                        self.keychain,
                        keys[node_id],
                        interner=interner,
                    )
                )

    # ------------------------------------------------------------------
    # Value accounting (tests / invariants)
    # ------------------------------------------------------------------
    def total_value(self) -> int:
        """Global conserved value, from one reference replica per shard.

        In Astro II a settled payment's value lives in limbo between the
        spender's debit and the beneficiary's materialization; the total is
        Σ balances + Σ amounts of settled-but-unmaterialized payments.
        """
        reference: Dict[int, Astro2Replica] = {
            shard: self._replica_by_node[self.directory.members(shard)[0]]
            for shard in self.directory.shard_ids
        }
        total = 0
        outstanding = 0
        for shard, replica in reference.items():
            total += replica.state.total_balance()
            for owner, _, _, xlog in replica.state.accounts():
                effects = zip(xlog.beneficiaries, xlog.amounts)
                for seq, (beneficiary, amount) in enumerate(effects, 1):
                    ben_shard = self.directory.shard_of_client(beneficiary)
                    ben_replica = reference[ben_shard]
                    used = ben_replica._used_deps.get(beneficiary, ())
                    if (owner, seq) not in used:
                        outstanding += amount
        return total + outstanding

"""The parts of a live deployment, wherever its replicas are placed.

A live replica is the *same protocol object* the simulator runs
(:class:`~repro.core.astro2.Astro2Replica` /
:class:`~repro.core.astro1.Astro1Replica`) over a
:class:`~repro.transport.tcp.TcpTransport` instead of a simulator
:class:`~repro.sim.node.Node`.  Placing replicas — one OS process each,
or tasks on one loop — and orchestrating them is
:mod:`repro.transport.cluster`; here is what holds either way:

* the **assembly rule** — :func:`default_genesis`,
  :func:`payment_stream`, :func:`build_replica`: pure functions, so
  every process derives one genesis, directory and key material;
* :class:`ReplicaHost` — how a replica boots and rejoins, written once;
* the **control channel** — :class:`ControlQuery` ``(tag, what)`` →
  :class:`ControlReply` ``(tag, node_id, body)`` on the replicas'
  ordinary authenticated connections (:func:`serve_control`); readings
  ``"stats"`` (settled/rejected/held/queued counters and the transport's
  error counters), ``"state"`` (the
  view the invariant monitor checks, plus the state fingerprint),
  ``"wire"`` (bytes and payloads this process wrote to its sockets) and
  ``"collector"`` (what the full-collection pacer of
  :mod:`repro.transport.collector` did here);
* :class:`_LoadGen` — the open-loop client population, paced against
  the clock; ``collect(what, timeout)`` gathers a reading from all N
  replicas or whoever answers in time.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..adversary.monitor import replica_state_view
from ..core.astro1 import Astro1Replica
from ..core.astro2 import Astro2Replica
from ..core.config import AstroConfig
from ..core.directory import assemble_directory
from ..core.messages import ClientConfirm, ClientSubmit
from ..core.payment import Payment
from ..core.persistence import (
    CatchUpReply,
    CatchUpRequest,
    ReplicaStore,
    serve_catch_up,
    state_fingerprint,
)
from ..crypto.keys import Keychain
from ..workloads.base import resolve_workload_name, workload_genesis
from . import collector
from .chaos import LinkFault, apply_link_fault
from .tcp import TcpTransport

__all__ = [
    "build_replica",
    "default_genesis",
    "payment_stream",
    "serve_control",
    "ControlQuery",
    "ControlReply",
    "ReplicaHost",
    "Shutdown",
]

#: Clients per replica in the default genesis, matching the bench lane.
CLIENTS_PER_REPLICA = 4

#: Bind attempts of a restarted replica reclaiming its old port; catch-up:
#: seconds to wait for one peer's reply, and the most rounds.
_BIND_RETRIES = 50
_BIND_RETRY_DELAY = 0.1
_CATCH_UP_TIMEOUT = 2.0
_CATCH_UP_MAX_ROUNDS = 1000


# ---------------------------------------------------------------------------
# Control channel (loadgen <-> replicas)
# ---------------------------------------------------------------------------
class ControlQuery:
    """The load generator asks a replica for the reading named ``what``."""

    __slots__ = ("tag", "what")

    def __init__(self, tag: int, what: str) -> None:
        self.tag = tag
        self.what = what


class ControlReply:
    __slots__ = ("tag", "node_id", "body")

    def __init__(self, tag: int, node_id: int, body: Dict[str, Any]) -> None:
        self.tag = tag
        self.node_id = node_id
        self.body = body


class Shutdown:
    __slots__ = ()


def _stats_reading(replica: Any) -> Dict[str, Any]:
    """Counters of ``replica``: payments settled and rejected; ``held``
    by it as a representative until funds are there (Listing 7; under
    Astro I its own clients' queued ones) and ``queued``, delivered but
    not yet approved.  Its transport's error counters ride along: handler
    exceptions (and the first one, by type and message), broken streams,
    and payloads evicted from full outbound backlogs."""
    stats = replica.transport.stats
    return {
        "settled": replica.settled_count,
        "rejected": len(replica.rejected),
        "held": replica.held_payments,
        "queued": replica.queued_payments,
        "handler_errors": stats.handler_errors,
        "first_handler_error": stats.first_handler_error,
        "stream_errors": stats.stream_errors,
        "queue_dropped": stats.queue_dropped,
    }


def _state_reading(replica: Any) -> Dict[str, Any]:
    """The invariant monitor's view of ``replica``, plus the state
    fingerprint the verdict compares across replicas."""
    view = replica_state_view(replica)
    view["fingerprint"] = state_fingerprint(replica.state)
    return view


def _wire_reading(node: Any) -> Dict[str, int]:
    """Socket counters of ``node.transport`` — a replica's, or the load
    generator's own (``cluster._wire_cost`` sums both)."""
    stats = node.transport.stats
    return {
        "bytes_sent": stats.bytes_sent,
        "payloads_sent": stats.payloads_sent,
    }


def serve_control(transport: Any, replica: Any) -> None:
    """Answer :class:`ControlQuery` on ``transport`` from ``replica``;
    a query for an unknown reading is ignored, as any garbage must be."""
    readings = {
        "stats": _stats_reading,
        "state": _state_reading,
        "wire": _wire_reading,
        "collector": lambda _replica: collector.reading(),
    }

    def _on_query(src: int, query: ControlQuery) -> None:
        reading = readings.get(query.what)
        if reading is not None:
            body = reading(replica)
            transport.send(src, ControlReply(query.tag, transport.node_id, body))

    transport.on(ControlQuery, _on_query)


# ---------------------------------------------------------------------------
# Deterministic assembly
# ---------------------------------------------------------------------------
def default_genesis(n: int, workload: Optional[str] = None) -> Dict[str, int]:
    """``4·n`` clients, funded as the workload's regime says.

    ``workload=None`` resolves the ``REPRO_WORKLOAD`` knob; the cluster
    parent resolves it once and hands the name to every replica, so all
    derive an identical genesis independently.
    """
    return workload_genesis(
        resolve_workload_name(workload), CLIENTS_PER_REPLICA * n
    )


def payment_stream(workload: Any) -> Iterator[Payment]:
    """The deterministic payment sequence the load generator emits:
    ``workload.next()`` triples (read-only ``None`` operations skipped)
    plus per-spender sequence numbers, dense from 1.  The sim-parity
    tests feed the *same* stream to a simulated system.
    """
    next_seq: Dict[str, int] = {}
    while True:
        operation = workload.next()
        if operation is None:
            continue
        spender, beneficiary, amount = operation
        seq = next_seq.get(spender, 0) + 1
        next_seq[spender] = seq
        yield Payment(spender, seq, beneficiary, amount)


def _build_directory(n: int, clients: List[str]):
    """One shard of ``n`` replicas, clients assigned by the system rule."""
    return assemble_directory(clients, n)


def build_replica(
    system: str,
    n: int,
    transport: Any,
    genesis: Dict[str, int],
    seed: int = 0,
    loadgen_node: Optional[int] = None,
    resend_acks: bool = False,
):
    """Construct one live replica over ``transport``.

    Pure function of ``(system, n, genesis, seed, node_id)`` so each OS
    process assembles a replica consistent with every other's.
    ``loadgen_node`` homes every represented client at that node id, so
    confirmations flow back to the load generator.  ``resend_acks`` turns
    on the signed BRB's duplicate-PREPARE re-ACK path (needed for crash
    recovery, off for byte-identity with the simulator).
    """
    config = AstroConfig(num_replicas=n, brb_resend_acks=resend_acks)
    directory = _build_directory(n, list(genesis))
    node_id = transport.node_id
    if system == "astro1":
        replica = Astro1Replica(
            transport, config, dict(genesis), directory, list(range(n))
        )
    elif system == "astro2":
        keychain = Keychain(seed=seed + 17)
        key = keychain.generate_replica_keys(n)[node_id]
        replica = Astro2Replica(
            transport, config, dict(genesis), directory, keychain, key
        )
    else:
        raise ValueError(f"unknown system {system!r} (astro1|astro2)")
    if loadgen_node is not None:
        for client, rep in directory.rep_map.items():
            if rep == node_id:
                replica.client_nodes[client] = loadgen_node
    return replica


# ---------------------------------------------------------------------------
# One live replica: boot, rejoin, close
# ---------------------------------------------------------------------------
class ReplicaHost:
    """A transport, the :func:`build_replica` object over it and — for
    durable state — a caller-built :class:`ReplicaStore` (else ``None``).

    Persistence is bound here, before the transport is up, so replayed
    sends (confirms, CREDITs) fall on the floor, not on the network.
    Then: ``await start(port)``, ``transport.connect(peers)`` (the load
    generator is node ``n``), with a store ``await rejoin()``, and
    ``await close()`` — also how to crash it: WAL records are flushed as
    written, so closing keeps nothing a SIGKILL would lose.
    """

    def __init__(
        self,
        system: str,
        n: int,
        node_id: int,
        secret: bytes,
        genesis: Dict[str, int],
        seed: int,
        store: Optional[ReplicaStore],
    ) -> None:
        self.n = n
        self.transport = transport = TcpTransport(node_id, secret)
        # Only a replica that can come back needs its peers to re-ACK
        # the PREPAREs it rebroadcasts: on iff a store is bound.
        self.replica = replica = build_replica(
            system, n, transport, genesis, seed=seed,
            loadgen_node=n, resend_acks=store is not None,
        )
        self.store = store
        #: What the boot found on disk (``None`` without a store).
        self.report = store and replica.bind_persistence(store)
        #: Set once the load generator says :class:`Shutdown`.
        self.stopped = asyncio.Event()
        on = transport.on
        on(Shutdown, lambda src, msg: self.stopped.set())
        serve_control(transport, replica)
        on(LinkFault, lambda src, msg: apply_link_fault(transport, msg))
        if store is not None:
            replies = self._catch_up_replies = asyncio.Queue()
            on(CatchUpRequest, self._serve_catch_up)
            on(CatchUpReply, lambda src, msg: replies.put_nowait(msg))

    def _serve_catch_up(self, src: int, request: CatchUpRequest) -> None:
        self.transport.send(src, serve_catch_up(self.store, request))

    async def start(self, port: int) -> int:
        """Bind ``port`` (0: any free one); returns the port bound.

        A restarted replica reclaims its old port so peers just redial;
        the kernel may hold a killed predecessor's socket for a moment,
        hence the retries (the last ``OSError`` propagates).
        """
        for _ in range(_BIND_RETRIES - 1):
            try:
                return await self.transport.start(port)
            except OSError:
                await asyncio.sleep(_BIND_RETRY_DELAY)
        return await self.transport.start(port)

    async def rejoin(self) -> Dict[str, Any]:
        """Once connected (store-bound hosts only): catch up iff the
        boot recovered state, then rebroadcast what never delivered.

        In that order: batches that did complete at the peers arrive via
        import (popping them from the pending set), so only genuinely
        undelivered ones are relaunched.
        """
        report = self.report
        imported = 0
        if self.n > 1 and (report.had_snapshot or report.replayed > 0):
            imported = await self._catch_up()
        return {
            "recovery": report.as_dict(),
            "imported": imported,
            "relaunched": len(self.replica.relaunch_pending()),
        }

    async def _catch_up(self) -> int:
        """Pull missed batches from peers until one reports nothing further.

        Round-robin; a timed-out round (peer down or slow) backs off and
        moves on.  Live traffic keeps arriving through the normal
        delivery path meanwhile, so the frontier advances from both
        directions; done when a round imports nothing new and the
        serving peer saw nothing missing.
        """
        replica, transport = self.replica, self.transport
        clock, replies = transport.clock, self._catch_up_replies
        peers = [peer for peer in range(self.n) if peer != transport.node_id]
        imported = 0
        backoff = 0.1
        for tag in range(1, _CATCH_UP_MAX_ROUNDS + 1):
            request = CatchUpRequest(tag, *replica.brb.delivered.capture())
            transport.send(peers[(tag - 1) % len(peers)], request)
            deadline = clock.now + _CATCH_UP_TIMEOUT
            try:
                while True:
                    reply = await asyncio.wait_for(
                        replies.get(), max(0.01, deadline - clock.now)
                    )
                    if reply.tag == tag:
                        break
            except asyncio.TimeoutError:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, 1.0)
                continue
            backoff = 0.1
            # Each entry is ``(origin, seq, batch)``; duplicates count 0.
            new = sum(replica.import_batch(*entry) for entry in reply.batches)
            imported += new
            if reply.complete and new == 0:
                break
        return imported

    async def close(self) -> None:
        await self.transport.close()
        if self.store is not None:
            self.store.close()


# ---------------------------------------------------------------------------
# Load generator
# ---------------------------------------------------------------------------
class _LoadGen:
    """Open-loop client population over one TcpTransport."""

    #: Pacing tick for the open-loop schedule.
    TICK = 0.01

    def __init__(
        self,
        transport: TcpTransport,
        n: int,
        genesis: Dict[str, int],
        workload: Any,
    ) -> None:
        self.transport = transport
        self.n = n
        self.rep_map = _build_directory(n, list(genesis)).rep_map
        self._stream = payment_stream(workload)
        #: identifier -> (Payment, submit time), for every
        #: submitted-but-unconfirmed payment (retried during chaos drains).
        self._pending: Dict[tuple, Tuple[Any, float]] = {}
        self.submitted = 0
        self.confirmed = 0
        self.retries = 0
        #: Confirms for already-confirmed identifiers (a recovered
        #: replica re-settling relaunched batches produces these).
        self.duplicate_confirms = 0
        self.latencies: List[float] = []
        #: tag -> (all-answered event, node_id -> body) per open collect().
        self._waiters: Dict[int, Tuple[asyncio.Event, Dict[int, Any]]] = {}
        self._tag = 0
        self.down: set = set()  # killed replicas: nothing waits for them
        transport.on(ClientConfirm, self._on_confirm)
        transport.on(ControlReply, self._on_control_reply)

    @property
    def pending(self) -> int:
        return len(self._pending)

    def _on_confirm(self, src: int, message) -> None:
        entry = self._pending.pop(message.payment.identifier, None)
        if entry is None:
            self.duplicate_confirms += 1
            return
        self.confirmed += 1
        self.latencies.append(self.transport.clock.now - entry[1])

    def _on_control_reply(self, src: int, reply: ControlReply) -> None:
        waiter = self._waiters.get(reply.tag)
        if waiter is None:
            return  # answered after its collect() timed out
        event, replies = waiter
        replies[reply.node_id] = reply.body
        if len(replies.keys() - self.down) >= self.n - len(self.down):
            event.set()

    async def collect(self, what: str, timeout: float = 5.0) -> Dict[int, Any]:
        """Ask every replica for reading ``what``; ``node_id -> body``
        of whoever answered when all that are up have, or at ``timeout``.

        A crashed replica simply does not answer — its monitor view
        stays frozen, the invariant contract for crashed-but-correct
        replicas.
        """
        self._tag += 1
        tag = self._tag
        event = asyncio.Event()
        replies: Dict[int, Any] = {}
        self._waiters[tag] = (event, replies)
        for node_id in range(self.n):
            self.transport.send(node_id, ControlQuery(tag, what))
        try:
            await asyncio.wait_for(event.wait(), timeout)
        except asyncio.TimeoutError:
            pass
        finally:  # also when the collecting task is cancelled
            del self._waiters[tag]
        return replies

    def retry_pending(self) -> None:
        """Resubmit every unconfirmed payment to its representative.

        Safe: one that already accepted (or settled) the same
        ``(spender, seq)`` drops the duplicate via its accepted-sequence
        guard, which crash recovery rebuilds conservatively.
        """
        for payment, _sent in list(self._pending.values()):
            self.transport.send(
                self.rep_map[payment.spender], ClientSubmit(payment)
            )
            self.retries += 1

    async def drain(self, timeout: float, retry_interval: float) -> bool:
        """Wait (with periodic retries) until every payment confirmed.

        Also over, unconfirmed payments remaining, once they are all
        *held*: as many as the representatives report holding for want
        of provable funds, on two ``"stats"`` rounds a retry apart.
        Income that is not coming does not arrive by waiting.
        """
        clock = self.transport.clock
        deadline = clock.now + timeout
        next_retry = clock.now + retry_interval
        all_held = False
        while self._pending and clock.now < deadline:
            await asyncio.sleep(0.05)
            if self._pending and clock.now >= next_retry:
                stats = await self.collect("stats", retry_interval)
                held = sum(reading["held"] for reading in stats.values())
                if held == self.pending and all_held:
                    break
                all_held = held == self.pending
                self.retry_pending()
                next_retry = clock.now + retry_interval
        return not self._pending

    async def run(self, rate: float, duration: float) -> None:
        """Submit ``round(rate × duration)`` payments, ``rate`` a second
        by the clock: a tick that fires late submits what fell due
        meanwhile, so the offered rate is the nominal one."""
        clock, send = self.transport.clock, self.transport.send
        start = clock.now
        total = round(rate * duration)
        sent = 0
        while sent < total:
            await asyncio.sleep(self.TICK)
            due = min(total, int(rate * (clock.now - start)))
            for _ in range(due - sent):
                payment = next(self._stream)
                self._pending[payment.identifier] = (payment, clock.now)
                send(self.rep_map[payment.spender], ClientSubmit(payment))
                self.submitted += 1
            sent = due

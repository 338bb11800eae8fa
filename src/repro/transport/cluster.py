"""Localhost live cluster: one OS process per replica, real TCP sockets.

``python -m repro.transport.cluster --n 4 --system astro2`` boots an
N-replica deployment in which every replica is the *same protocol
object* the simulator runs (:class:`~repro.core.astro2.Astro2Replica` /
:class:`~repro.core.astro1.Astro1Replica`), bound to a
:class:`~repro.transport.tcp.TcpTransport` instead of a simulator
:class:`~repro.sim.node.Node`.  The parent process runs an open-loop
load generator (a paced client population, like
:class:`repro.workloads.drivers.OpenLoopDriver` but against wall time),
measures settled wall-clock throughput over a steady-state window, and
writes the result to ``BENCH_live.json``.

With ``--wal-dir`` every replica binds a
:class:`~repro.core.persistence.ReplicaStore` (append-only WAL +
periodic snapshots) before its transport starts, and ``--chaos`` drives
a fault timeline (:mod:`repro.transport.chaos`) against the running
cluster: SIGKILL/restart of replica processes, partitions, frame
delay/drop.  A restarted replica rebinds its old port, replays its log
to the pre-crash state fingerprint, pulls missed batches from a peer
(bounded catch-up), and rejoins; meanwhile the parent samples every
replica's state over the control channel and feeds the
:class:`~repro.adversary.monitor.InvariantMonitor` — the same five
safety invariants checked under simulated attacks, now on the real
cluster.  The chaos verdict, per-replica recovery latency, and final
cross-replica fingerprints land in ``BENCH_chaos.json``.

The control channel is one request/reply pair riding the replicas'
ordinary authenticated connections: the parent sends
:class:`ControlQuery` ``(tag, what)``, :func:`serve_control` answers
with :class:`ControlReply` ``(tag, node_id, body)``, and
``_LoadGen.collect(what, timeout)`` waits for all N replies or the
timeout.  Two readings exist: ``"stats"`` (settled/rejected counters)
and ``"state"`` (the view the invariant monitor samples).

Determinism note: the simulated crypto derives digests and signature
tokens from Python's ``hash``, which is per-interpreter randomized.
All replica processes must therefore share one hash seed.  With the
``fork`` start method (Linux) children inherit the parent's seed — a
*restarted* child forks from the same parent, so recovery replays
against identical digests; with ``spawn`` this module pins
``PYTHONHASHSEED`` in the children's environment before launching them.
The parent itself never computes a protocol digest, so its own seed is
irrelevant.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import tempfile
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .clock import RealTimeClock
from .tcp import TcpTransport

__all__ = [
    "build_replica",
    "default_genesis",
    "payment_stream",
    "run_cluster",
    "serve_control",
    "ReplicaProcessError",
    "ControlQuery",
    "ControlReply",
    "Shutdown",
]

#: Default shared cluster secret for localhost runs (override with
#: ``--secret`` for anything that leaves the loopback interface).
DEFAULT_SECRET = b"astro-localhost-cluster"

#: Clients per replica in the default genesis, matching the bench lane.
CLIENTS_PER_REPLICA = 4

#: Genesis balance per client: effectively unlimited for short runs.
GENESIS_BALANCE = 1_000_000_000

#: Bind retries for a restarted replica reclaiming its old port.
_BIND_RETRIES = 50
_BIND_RETRY_DELAY = 0.1

#: Chaos mode: seconds between invariant-monitor samples, seconds between
#: resubmissions of unconfirmed payments, and the longest wait for full
#: settlement (and for recoveries to finish) after the load stops.
MONITOR_INTERVAL = 1.0
RETRY_INTERVAL = 1.0
DRAIN_TIMEOUT = 30.0


class ReplicaProcessError(RuntimeError):
    """A replica process died although no fault was scheduled for it."""


# ---------------------------------------------------------------------------
# Control channel (loadgen <-> replicas)
# ---------------------------------------------------------------------------
class ControlQuery:
    """Parent asks a replica for the reading named ``what``."""

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


def _stats_reading(replica: Any) -> Dict[str, int]:
    settled, rejected = replica.settled_count, len(replica.rejected)
    return {"settled": settled, "rejected": rejected}


def serve_control(transport: Any, replica: Any) -> None:
    """Answer :class:`ControlQuery` on ``transport`` from ``replica``.

    A query for a reading this replica does not have is ignored, as any
    garbage from a peer must be.
    """
    from .chaos import replica_state_view

    readings = {"stats": _stats_reading, "state": replica_state_view}

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
    """The cluster's client population: ``4·n`` funded clients.

    Balances follow the workload's regime: richly funded everywhere
    except under ``merchant``, where the merchant slice of the
    (repr-sorted) population starts tight so live payouts exercise
    credit-funded settlement.  ``workload=None`` resolves the
    ``REPRO_WORKLOAD`` knob; the cluster parent resolves it once and
    hands the name to every replica child, so all derive an identical
    genesis independently.
    """
    from ..workloads.base import resolve_workload_name

    clients = [f"c{i:04d}" for i in range(CLIENTS_PER_REPLICA * n)]
    genesis = {client: GENESIS_BALANCE for client in clients}
    if resolve_workload_name(workload) == "merchant":
        from ..workloads.merchant import MERCHANT_BALANCE, merchant_split

        _, merchants = merchant_split(sorted(clients, key=repr))
        for client in merchants:
            genesis[client] = MERCHANT_BALANCE
    return genesis


def payment_stream(workload: Any) -> Iterator[Any]:
    """The deterministic payment sequence the load generator emits.

    Triples come from ``workload.next()`` (read-only ``None`` operations
    are skipped); this generator only adds the per-spender sequence
    numbers, dense from 1.  Exposed so the sim-parity tests can feed the
    *same* stream to a simulated system and compare settled sets after
    an identical fault timeline.
    """
    from ..core.payment import Payment

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
    from ..core.directory import assemble_directory

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
    process assembles a replica consistent with every other process —
    the same trick :mod:`repro.sim.shard` uses to replicate builds
    across shard workers.  ``loadgen_node`` registers every represented
    client as living at that node id, so settlement confirmations flow
    back to the load generator.  ``resend_acks`` turns on the signed
    BRB's duplicate-PREPARE re-ACK path (needed for crash recovery, off
    for byte-identity with the simulator).
    """
    from ..core.astro1 import Astro1Replica
    from ..core.astro2 import Astro2Replica
    from ..core.config import AstroConfig
    from ..crypto.keys import Keychain

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
# Replica child process
# ---------------------------------------------------------------------------
def _replica_main(*args) -> None:
    """Process entry point: :func:`_replica_async` to completion."""
    asyncio.run(_replica_async(*args))


async def _run_catch_up(
    replica: Any,
    transport: TcpTransport,
    replies: "asyncio.Queue",
    peer_ids: Sequence[int],
    timeout: float = 2.0,
    max_rounds: int = 1000,
) -> int:
    """Pull missed batches from peers until one reports nothing further.

    Round-robins the peers; a timed-out round (peer down or slow) backs
    off and moves to the next peer.  Live traffic keeps arriving during
    catch-up through the normal delivery path — the frontier advances
    from both directions and the loop converges when a full round
    imports nothing new and the serving peer saw nothing missing.
    """
    from ..core.persistence import CatchUpRequest

    loop = asyncio.get_running_loop()
    imported = 0
    tag = 0
    backoff = 0.1
    for round_no in range(max_rounds):
        peer = peer_ids[round_no % len(peer_ids)]
        tag += 1
        transport.send(
            peer,
            CatchUpRequest(
                tag, replica.delivered_frontier, replica.delivered_extra
            ),
        )
        deadline = loop.time() + timeout
        reply = None
        try:
            while True:
                remaining = deadline - loop.time()
                candidate = await asyncio.wait_for(
                    replies.get(), max(0.01, remaining)
                )
                if candidate.tag == tag:
                    reply = candidate
                    break
        except asyncio.TimeoutError:
            await asyncio.sleep(backoff)
            backoff = min(backoff * 2, 1.0)
            continue
        backoff = 0.1
        new = 0
        for origin, seq, batch in reply.batches:
            if replica.import_batch(origin, seq, batch):
                new += 1
        imported += new
        if reply.complete and new == 0:
            break
    return imported


async def _replica_async(
    system: str,
    n: int,
    node_id: int,
    conn,
    secret: bytes,
    seed: int,
    port: int,
    wal_dir: Optional[str],
    workload: str,
) -> None:
    from ..core.persistence import (
        CatchUpReply,
        CatchUpRequest,
        ReplicaStore,
        WalCorruption,
        serve_catch_up,
    )
    from .chaos import LinkFault, apply_link_fault

    loop = asyncio.get_running_loop()
    transport = TcpTransport(node_id, secret, clock=RealTimeClock(loop))
    replica = build_replica(
        system, n, transport, default_genesis(n, workload), seed=seed,
        loadgen_node=n, resend_acks=wal_dir is not None,
    )
    store = None
    report = None
    if wal_dir is not None:
        store = ReplicaStore(wal_dir, node_id)
        try:
            # Replay must precede transport start: replayed sends
            # (confirms, CREDITs) fall on the floor instead of reaching
            # the network.
            report = replica.bind_persistence(store)
        except WalCorruption as exc:
            conn.send(("failed", node_id, str(exc)))
            return
    # A restarted replica reclaims its previous port so peers (which
    # never learn of the restart) reconnect to the same address.  The
    # predecessor was SIGKILLed, so the kernel may hold the socket for
    # a moment.
    for attempt in range(_BIND_RETRIES):
        try:
            await transport.start(port)
            break
        except OSError:
            if attempt == _BIND_RETRIES - 1:
                conn.send(("failed", node_id, f"cannot bind port {port}"))
                return
            await asyncio.sleep(_BIND_RETRY_DELAY)

    stop = asyncio.Event()
    transport.on(Shutdown, lambda src, msg: stop.set())
    serve_control(transport, replica)
    transport.on(LinkFault, lambda src, msg: apply_link_fault(transport, msg))
    catch_up_replies: asyncio.Queue = asyncio.Queue()
    if store is not None:
        transport.on(
            CatchUpRequest,
            lambda src, msg: transport.send(src, serve_catch_up(store, msg)),
        )
        transport.on(
            CatchUpReply, lambda src, msg: catch_up_replies.put_nowait(msg)
        )

    conn.send(
        ("port", node_id, transport.port, report.as_dict() if report else None)
    )
    peers = await loop.run_in_executor(None, conn.recv)
    transport.connect(peers)
    conn.send(("ready", node_id))

    if store is not None:
        recovered = report is not None and (
            report.had_snapshot or report.replayed > 0
        )
        imported = 0
        if recovered and n > 1:
            imported = await _run_catch_up(
                replica,
                transport,
                catch_up_replies,
                [peer for peer in range(n) if peer != node_id],
            )
        # Relaunch *after* catch-up: batches that did complete at the
        # peers arrived via import (popping them from the pending set),
        # so only genuinely undelivered batches are rebroadcast.
        relaunched = replica.relaunch_pending()
        conn.send(
            (
                "caught_up",
                node_id,
                {
                    "recovery": report.as_dict(),
                    "imported": imported,
                    "relaunched": len(relaunched),
                },
            )
        )

    await stop.wait()
    await transport.close()
    if store is not None:
        store.close()


# ---------------------------------------------------------------------------
# Replica process management (parent)
# ---------------------------------------------------------------------------
class _ClusterProcs:
    """Spawns, SIGKILLs, and restarts the replica processes."""

    def __init__(
        self, ctx, args, secret: bytes, wal_dir: Optional[str], workload: str
    ) -> None:
        self.ctx = ctx
        self.args = args
        self.secret = secret
        self.wal_dir = wal_dir
        #: Resolved workload name; children derive their genesis from it.
        self.workload = workload
        self.procs: Dict[int, Any] = {}
        self.conns: Dict[int, Any] = {}
        self.ports: Dict[int, int] = {}
        self.peer_map: Dict[int, Tuple[str, int]] = {}
        #: Replicas deliberately killed by the fault schedule: exempt
        #: from the watchdog until restarted.
        self.down: set = set()

    def spawn(self, node_id: int, port: int = 0) -> None:
        parent_conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=_replica_main,
            args=(
                self.args.system,
                self.args.n,
                node_id,
                child_conn,
                self.secret,
                self.args.seed,
                port,
                self.wal_dir,
                self.workload,
            ),
            daemon=True,
        )
        proc.start()
        self.procs[node_id] = proc
        self.conns[node_id] = parent_conn

    def spawn_all(self) -> None:
        for node_id in range(self.args.n):
            self.spawn(node_id)

    async def _recv(self, node_id: int, loop, expected: str) -> tuple:
        """The child's next pipe message, which must be ``expected``."""
        message = await loop.run_in_executor(None, self.conns[node_id].recv)
        if message[0] != expected:
            raise ReplicaProcessError(
                f"replica {node_id} sent {message!r} instead of {expected!r}"
            )
        return message

    async def handshake(self, node_id: int, loop) -> Optional[Dict[str, Any]]:
        """Read the child's port announcement; returns its recovery report."""
        message = await self._recv(node_id, loop, "port")
        self.ports[node_id] = message[2]
        return message[3]

    async def finish_boot(self, node_id: int, loop) -> None:
        self.conns[node_id].send(self.peer_map)
        await self._recv(node_id, loop, "ready")

    async def wait_caught_up(self, node_id: int, loop) -> Dict[str, Any]:
        return (await self._recv(node_id, loop, "caught_up"))[2]

    def kill(self, node_id: int) -> None:
        """SIGKILL — no flush, no goodbye; recovery must come from the WAL."""
        self.down.add(node_id)
        self.procs[node_id].kill()

    async def restart(self, node_id: int, loop) -> Optional[Dict[str, Any]]:
        """Respawn on the same port; returns the child's recovery report."""
        self.spawn(node_id, port=self.ports[node_id])
        self.down.discard(node_id)
        recovery = await self.handshake(node_id, loop)
        await self.finish_boot(node_id, loop)
        return recovery

    def poll_unexpected(self) -> None:
        """Fail fast when a replica process dies outside the fault plan."""
        for node_id, proc in self.procs.items():
            if node_id in self.down:
                continue
            if proc.exitcode is not None:
                raise ReplicaProcessError(
                    f"replica {node_id} exited unexpectedly "
                    f"(exitcode {proc.exitcode})"
                )

    def shutdown(self) -> None:
        for proc in self.procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)

    def terminate(self) -> None:
        for proc in self.procs.values():
            if proc.is_alive():  # pragma: no cover - crash cleanup
                proc.terminate()


# ---------------------------------------------------------------------------
# Load generator (parent process)
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
        from ..core.messages import ClientConfirm

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
        if len(replies) == self.n:
            event.set()

    async def collect(self, what: str, timeout: float = 5.0) -> Dict[int, Any]:
        """Ask every replica for reading ``what``; ``node_id -> body``.

        Waits for all N replies or ``timeout``, and returns whoever
        answered.  A crashed replica simply does not answer — its monitor
        view stays frozen, which is exactly the invariant contract for
        crashed-but-correct replicas.
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
        del self._waiters[tag]
        return replies

    def retry_pending(self) -> None:
        """Resubmit every unconfirmed payment to its representative.

        Safe against duplicates: a representative that already accepted
        (or already settled) the same ``(spender, seq)`` drops the
        resubmission via its accepted-sequence guard, which crash
        recovery rebuilds conservatively.
        """
        from ..core.messages import ClientSubmit

        for payment, _sent in list(self._pending.values()):
            self.transport.send(
                self.rep_map[payment.spender], ClientSubmit(payment)
            )
            self.retries += 1

    async def drain(self, timeout: float, retry_interval: float) -> bool:
        """Wait (with periodic retries) until every payment confirmed."""
        clock = self.transport.clock
        deadline = clock.now + timeout
        next_retry = clock.now + retry_interval
        while self._pending and clock.now < deadline:
            await asyncio.sleep(0.05)
            if self._pending and clock.now >= next_retry:
                self.retry_pending()
                next_retry = clock.now + retry_interval
        return not self._pending

    async def run(self, rate: float, duration: float) -> None:
        """Submit ``rate`` payments/s for ``duration`` seconds."""
        from ..core.messages import ClientSubmit

        rep_map = self.rep_map
        clock = self.transport.clock
        deadline = clock.now + duration
        carry = 0.0
        while clock.now < deadline:
            carry += rate * self.TICK
            burst = int(carry)
            carry -= burst
            for _ in range(burst):
                payment = next(self._stream)
                self._pending[payment.identifier] = (payment, clock.now)
                self.transport.send(
                    rep_map[payment.spender], ClientSubmit(payment)
                )
                self.submitted += 1
            await asyncio.sleep(self.TICK)


def _report(args, loadgen, final, wall_start, **fields) -> Dict[str, Any]:
    """The fields both reports share, around the mode's own ``fields``."""
    return {
        "system": args.system,
        "n": args.n,
        "transport": "tcp-localhost",
        "offered_pps": args.rate,
        "warmup_s": args.warmup,
        "duration_s": args.duration,
        **fields,
        "submitted": loadgen.submitted,
        "confirmed": loadgen.confirmed,
        "settled_final_by_replica": {
            str(k): final[k]["settled"] for k in sorted(final)
        },
        "rejected_final": {
            str(k): final[k]["rejected"] for k in sorted(final)
        },
        "confirm_latency_ms": _latency_ms(loadgen.latencies),
        "wall_elapsed_s": round(time.monotonic() - wall_start, 3),
    }


def _latency_ms(latencies: List[float]) -> Dict[str, float]:
    """Confirm-latency summary of a report, in milliseconds."""
    from ..sim.metrics import summarize_values

    if not latencies:
        return {}
    summary = summarize_values(latencies)
    return {
        name: round(getattr(summary, name) * 1e3, 2)
        for name in ("p50", "p95", "p99", "mean")
    }


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------
async def _run_bench(args, transport, loadgen) -> Dict[str, Any]:
    """The steady-state throughput measurement (``BENCH_live.json``)."""
    wall_start = time.monotonic()
    # Warmup: bring connections up and fill the batching pipeline.
    await loadgen.run(args.rate, args.warmup)
    before = await loadgen.collect("stats")
    measure_start = transport.clock.now
    await loadgen.run(args.rate, args.duration)
    measure_elapsed = transport.clock.now - measure_start
    after = await loadgen.collect("stats")
    # Grace: let in-flight batches/credits settle before the final count.
    await asyncio.sleep(args.grace)
    final = await loadgen.collect("stats")

    deltas = {
        node_id: after[node_id]["settled"] - before[node_id]["settled"]
        for node_id in after
        if node_id in before
    }
    # A payment counts as live throughput once settled at *every*
    # replica (the conservative reading; per-replica deltas are reported
    # alongside).
    measured_pps = (
        min(deltas.values()) / measure_elapsed if deltas else 0.0
    )
    stats = transport.stats
    return _report(
        args, loadgen, final, wall_start,
        measured_pps=round(measured_pps, 1),
        measure_elapsed_s=round(measure_elapsed, 3),
        settled_delta_by_replica={
            str(k): v for k, v in sorted(deltas.items())
        },
        # The load generator's side of the wire: trains written/read, the
        # payloads they carried out, and how full its trains ran (1.0 would
        # mean one-message frames again).
        loadgen_frames_sent=stats.frames_sent,
        loadgen_frames_received=stats.frames_received,
        loadgen_payloads_sent=stats.payloads_sent,
        payloads_per_frame=round(
            stats.payloads_sent / max(stats.frames_sent, 1), 2
        ),
    )


async def _run_chaos(
    args, events, genesis, cluster, transport, loadgen, loop
) -> Dict[str, Any]:
    """Drive the fault timeline ``events`` against the live cluster
    (``BENCH_chaos.json``)."""
    from ..adversary.monitor import InvariantMonitor
    from .chaos import LiveFaultInjector, LiveMonitorFeed

    directory = _build_directory(args.n, list(genesis))
    feed = LiveMonitorFeed(
        range(args.n), genesis, directory, deps=args.system == "astro2"
    )
    # dep_grace=1: live views are captured milliseconds apart, so a
    # freshly materialized dependency may precede its crediting payment
    # in a settler's view by one sample.
    monitor = InvariantMonitor(
        feed, interval=MONITOR_INTERVAL, autostart=False, dep_grace=1
    )

    recoveries: Dict[int, Dict[str, Any]] = {}
    recovery_tasks: List[asyncio.Task] = []
    t0 = loop.time()  # rebound after warmup, before the injector runs

    def crash_fn(node_id: int) -> None:
        print(f"[chaos] t={loop.time() - t0:.2f}s SIGKILL replica {node_id}")
        cluster.kill(node_id)

    async def recover_fn(node_id: int) -> None:
        started = loop.time()
        print(f"[chaos] t={started - t0:.2f}s restarting replica {node_id}")
        recovery = await cluster.restart(node_id, loop)
        entry = recoveries.setdefault(node_id, {})
        entry["recovery"] = recovery
        entry["restart_s"] = round(loop.time() - started, 3)

        async def _await_catch_up() -> None:
            info = await cluster.wait_caught_up(node_id, loop)
            entry.update(info)
            entry["recovery_latency_s"] = round(loop.time() - started, 3)
            print(
                f"[chaos] replica {node_id} caught up in "
                f"{entry['recovery_latency_s']}s "
                f"(replayed {info['recovery']['replayed']}, "
                f"imported {info['imported']}, "
                f"relaunched {info['relaunched']})"
            )

        recovery_tasks.append(asyncio.ensure_future(_await_catch_up()))

    injector = LiveFaultInjector(
        crash_fn, recover_fn, transport.send, range(args.n), events
    )

    wall_start = time.monotonic()
    await loadgen.run(args.rate, args.warmup)
    t0 = loop.time()
    chaos_task = asyncio.ensure_future(injector.run(t0))

    async def sample(timeout: float) -> Dict[int, Any]:
        """One monitor sample over whoever answers within ``timeout``."""
        views = await loadgen.collect("state", timeout)
        for node_id, view in views.items():
            feed.update(node_id, view)
        monitor.sample(now=loop.time() - t0)
        return views

    monitor_stop = asyncio.Event()

    async def monitor_loop() -> None:
        while not monitor_stop.is_set():
            await sample(MONITOR_INTERVAL * 0.5)
            await asyncio.sleep(MONITOR_INTERVAL)

    monitor_task = asyncio.ensure_future(monitor_loop())

    await loadgen.run(args.rate, args.duration)
    await chaos_task  # the full fault schedule has executed
    if recovery_tasks:
        await asyncio.wait(recovery_tasks, timeout=DRAIN_TIMEOUT)
    drained = await loadgen.drain(DRAIN_TIMEOUT, RETRY_INTERVAL)

    monitor_stop.set()
    await monitor_task

    # Final verdict round: settled counters, state fingerprints on every
    # replica (the recovered one must match the never-crashed controls),
    # one last invariant sample over the final views.
    final_stats = await loadgen.collect("stats")
    final_views = await sample(5.0)
    fingerprints = {
        node_id: view["fingerprint"]
        for node_id, view in sorted(final_views.items())
    }
    fingerprints_equal = (
        len(fingerprints) == args.n and len(set(fingerprints.values())) == 1
    )
    verdict = monitor.verdict()
    return _report(
        args, loadgen, final_stats, wall_start,
        mode="chaos",
        timeline=args.chaos,
        wal_dir=cluster.wal_dir,
        retries=loadgen.retries,
        duplicate_confirms=loadgen.duplicate_confirms,
        unconfirmed=loadgen.pending,
        drained=drained,
        fingerprints={str(k): v for k, v in fingerprints.items()},
        fingerprints_equal=fingerprints_equal,
        monitor=verdict,
        recoveries={str(k): v for k, v in sorted(recoveries.items())},
        injected=[
            [round(t, 3), action, payload]
            for t, action, payload in injector.log
        ],
        ok=drained and verdict["ok"] and fingerprints_equal,
    )


async def _orchestrate(args, cluster: _ClusterProcs, events) -> Dict[str, Any]:
    from ..workloads.base import make_workload

    loop = asyncio.get_running_loop()
    transport = TcpTransport(args.n, cluster.secret, clock=RealTimeClock(loop))
    await transport.start()
    genesis = default_genesis(args.n, cluster.workload)
    workload = make_workload(
        cluster.workload, sorted(genesis, key=repr), seed=args.seed
    )
    loadgen = _LoadGen(transport, args.n, genesis, workload)

    for node_id in range(args.n):
        await cluster.handshake(node_id, loop)
    cluster.peer_map = {
        node_id: ("127.0.0.1", port) for node_id, port in cluster.ports.items()
    }
    cluster.peer_map[args.n] = ("127.0.0.1", transport.port)
    for node_id in range(args.n):
        await cluster.finish_boot(node_id, loop)
    if cluster.wal_dir is not None:
        # First boot with persistence: every child reports an (empty)
        # recovery before load starts.
        for node_id in range(args.n):
            await cluster.wait_caught_up(node_id, loop)
    transport.connect(cluster.peer_map)

    print(
        f"[cluster] {args.system} n={args.n}: replicas on ports "
        f"{[cluster.ports[i] for i in sorted(cluster.ports)]}, "
        f"loadgen on {transport.port}"
        + (f", wal in {cluster.wal_dir}" if cluster.wal_dir else "")
    )

    async def watchdog() -> None:
        while True:
            cluster.poll_unexpected()
            await asyncio.sleep(0.25)

    if events is None:
        runner = _run_bench(args, transport, loadgen)
    else:
        runner = _run_chaos(
            args, events, genesis, cluster, transport, loadgen, loop
        )
    main_task = asyncio.ensure_future(runner)
    watchdog_task = asyncio.ensure_future(watchdog())
    done, _pending = await asyncio.wait(
        {main_task, watchdog_task}, return_when=asyncio.FIRST_COMPLETED
    )
    if watchdog_task in done:
        # Only an unexpected replica death completes the watchdog.
        main_task.cancel()
        await asyncio.gather(main_task, return_exceptions=True)
        await transport.close()
        raise watchdog_task.exception()
    watchdog_task.cancel()
    await asyncio.gather(watchdog_task, return_exceptions=True)
    report = main_task.result()

    for node_id in range(args.n):
        if node_id not in cluster.down:
            transport.send(node_id, Shutdown())
    await asyncio.sleep(0.2)
    await transport.close()
    cluster.shutdown()
    return report


def run_cluster(args) -> Dict[str, Any]:
    """Spawn the replica processes, drive load, return the report."""
    from ..workloads.base import resolve_workload_name
    from .chaos import check_replica_ids, parse_timeline

    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        ctx = multiprocessing.get_context("fork")
    else:  # pragma: no cover - non-fork platforms
        # Children must share a hash seed (module docstring); the parent
        # re-execs them, so pin the seed through the environment.
        os.environ.setdefault("PYTHONHASHSEED", "0")
        ctx = multiprocessing.get_context("spawn")
    secret = args.secret.encode() if isinstance(args.secret, str) else args.secret
    # Resolved once here; every child gets the name as an argument.
    workload = resolve_workload_name(args.workload)
    events = None  # bench mode
    if args.chaos:
        events = parse_timeline(args.chaos)
        check_replica_ids(events, args.n)
    wal_dir = args.wal_dir
    if events is not None and wal_dir is None:
        wal_dir = tempfile.mkdtemp(prefix="astro-wal-")
    if wal_dir is not None:
        os.makedirs(wal_dir, exist_ok=True)
    cluster = _ClusterProcs(ctx, args, secret, wal_dir, workload)
    cluster.spawn_all()
    try:
        return asyncio.run(_orchestrate(args, cluster, events))
    finally:
        cluster.terminate()


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.transport.cluster",
        description="Run an Astro replica cluster on localhost TCP.",
    )
    parser.add_argument("--n", type=int, default=4, help="replica count")
    parser.add_argument(
        "--system", choices=("astro1", "astro2"), default="astro2"
    )
    parser.add_argument(
        "--rate", type=float, default=1000.0, help="offered payments/s"
    )
    parser.add_argument(
        "--warmup", type=float, default=2.0, help="warmup seconds"
    )
    parser.add_argument(
        "--duration", type=float, default=10.0, help="measurement seconds"
    )
    parser.add_argument(
        "--grace", type=float, default=1.5,
        help="post-load drain before the final settled count",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="keychain and workload seed"
    )
    parser.add_argument(
        "--workload", choices=("uniform", "zipf", "merchant"), default=None,
        help="payment demand distribution (default: the REPRO_WORKLOAD "
             "environment knob, else uniform)",
    )
    parser.add_argument(
        "--secret", default=DEFAULT_SECRET.decode(),
        help="shared cluster secret for the transport handshake",
    )
    parser.add_argument(
        "--chaos", default=None, metavar="TIMELINE",
        help="fault timeline, e.g. 'crash:1@5;recover:1@10' "
             "(see repro.transport.chaos)",
    )
    parser.add_argument(
        "--wal-dir", default=None,
        help="directory for per-replica WALs/snapshots (enables durable "
             "state; defaults to a temp dir when --chaos is given)",
    )
    parser.add_argument(
        "--out", default=None, help="report output path "
        "(default: BENCH_chaos.json with --chaos, else BENCH_live.json)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    out = args.out or ("BENCH_chaos.json" if args.chaos else "BENCH_live.json")
    report = run_cluster(args)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"[cluster] wrote {out}")
    print(json.dumps(report, indent=2))
    if args.chaos:
        return 0 if report["ok"] else 1
    return 0 if report["measured_pps"] > 0 else 1


if __name__ == "__main__":  # pragma: no cover - exercised by CI live-smoke
    raise SystemExit(main())

"""Localhost live cluster: placement, orchestration, the report and the CLI.

``python -m repro.transport.cluster --n 4 --system astro2`` boots N
:class:`~repro.transport.live.ReplicaHost`s, one OS process each, behind
the open-loop load generator of :mod:`repro.transport.live` in the
parent, and runs one scenario (:func:`_run`): warm-up, a measurement
window, drain, verdict.  ``--chaos`` names the fault timeline
(:mod:`repro.transport.chaos`: kill/restart, partition, delay, drop)
driven against the window; without it the timeline is empty and nothing
else differs.  Either way the report (``BENCH_live.json``, or
``BENCH_chaos.json`` under ``--chaos``) carries settled wall-clock
throughput, confirm latency, wire cost per payment, and the verdict —
no payment stranded (unconfirmed and not *held* by a representative
waiting to prove funds), :class:`~repro.adversary.monitor.InvariantMonitor`
SAFE over the replicas' sampled state, one state fingerprint — which is
the exit code.  ``--wal-dir`` gives every replica a WAL and snapshots
(a timeline that crashes one gets a temp dir).

*Where* a replica runs is the context :class:`_ClusterProcs` is handed:
a ``multiprocessing`` context (a process, SIGKILLed — what
:func:`run_cluster` passes) or :class:`LoopContext` (a task on the
caller's loop, cancelled — what lets a test run this orchestrator).
Either way it is :func:`_replica_async`: a host behind a pipe.

Determinism note: the simulated crypto derives digests and signature
tokens from Python's ``hash``, which is per-interpreter randomized, so
all replica processes must share one hash seed.  Under ``fork`` (Linux)
children — restarted ones too — inherit the parent's; under ``spawn``
this module pins ``PYTHONHASHSEED`` in their environment.  The parent
never computes a protocol digest, so its own seed is irrelevant.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import signal
import tempfile
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from ..adversary.monitor import InvariantMonitor, genesis_view
from ..core.persistence import ReplicaStore, WalCorruption
from ..sim.metrics import summarize_values
from ..workloads.base import make_workload, resolve_workload_name
from .chaos import LiveFaultInjector, check_replica_ids, parse_timeline
from .live import (
    ReplicaHost,
    Shutdown,
    _build_directory,
    _LoadGen,
    _wire_reading,
    build_replica,
    default_genesis,
)
from .tcp import TcpTransport

# ``perfbench/`` imports ``_build_directory`` and ``build_replica`` from
# here (pinned by tests/transport/test_cluster.py).
__all__ = [
    "build_replica",
    "run_cluster",
    "LoopContext",
    "ReplicaProcessError",
]

#: Default shared cluster secret for localhost runs (override with
#: ``--secret`` for anything that leaves the loopback interface).
DEFAULT_SECRET = b"astro-localhost-cluster"

#: Seconds between invariant-monitor samples while faults are scheduled,
#: seconds between resubmissions of unconfirmed payments, and the longest
#: wait for full settlement (and for recoveries) after the load stops.
MONITOR_INTERVAL = 1.0
RETRY_INTERVAL = 1.0
DRAIN_TIMEOUT = 30.0


class ReplicaProcessError(RuntimeError):
    """A replica died although no fault was scheduled for it."""


# ---------------------------------------------------------------------------
# Replica child: one host behind the parent's pipe
# ---------------------------------------------------------------------------
async def _recv(conn) -> Any:
    """``conn``'s next message.  Polled, so no thread sits in a blocking
    ``recv`` that a kill or a cancellation would leave behind."""
    while not conn.poll():
        await asyncio.sleep(0.01)
    return conn.recv()


def _replica_main(*args) -> None:
    """Process entry point: :func:`_replica_async` to completion."""
    asyncio.run(_replica_async(*args))


async def _replica_async(
    node_id: int,
    conn,
    port: int,
    system: str,
    n: int,
    secret: bytes,
    seed: int,
    wal_dir: Optional[str],
    workload: str,
) -> None:
    store = ReplicaStore(wal_dir, node_id) if wal_dir is not None else None
    genesis = default_genesis(n, workload)
    try:
        host = ReplicaHost(system, n, node_id, secret, genesis, seed, store)
    except WalCorruption as exc:
        conn.send(("failed", node_id, str(exc)))
        return
    try:
        try:
            await host.start(port)
        except OSError:
            conn.send(("failed", node_id, f"cannot bind port {port}"))
            return
        recovery = host.report.as_dict() if host.report else None
        conn.send(("port", node_id, host.transport.port, recovery))
        host.transport.connect(await _recv(conn))
        conn.send(("ready", node_id))
        if store is not None:
            conn.send(("caught_up", node_id, await host.rejoin()))
        await host.stopped.wait()
    finally:
        await host.close()


# ---------------------------------------------------------------------------
# Placement: in-loop stand-in for a multiprocessing context
# ---------------------------------------------------------------------------
class _ReplicaTask:
    """What the cluster uses of a ``Process``, over a task on the running
    loop.  ``target`` is :func:`_replica_main`, which only adds the loop
    this placement already has to ``_replica_async(*args)``."""

    def __init__(self, target, args: tuple, daemon: bool) -> None:
        self._args = args
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._main())

    async def _main(self) -> None:
        try:
            await _replica_async(*self._args)
        except Exception:
            traceback.print_exc()  # a dying process says why on stderr
            raise

    def kill(self) -> None:
        """Cancellation stands in for SIGKILL: the task's ``finally``
        closes the sockets and files the kernel would have closed."""
        self._task.cancel()

    @property
    def exitcode(self) -> Optional[int]:
        task = self._task
        if not task.done():
            return None
        if task.cancelled():
            return -signal.SIGKILL
        return 1 if task.exception() else 0


class LoopContext:
    """The slice of a ``multiprocessing`` context :class:`_ClusterProcs`
    uses, placing each replica on the caller's loop.  The pipe is the
    real thing, so what crosses it is pickled as between processes."""

    Pipe = staticmethod(multiprocessing.Pipe)
    Process = _ReplicaTask


# ---------------------------------------------------------------------------
# Replica management (parent)
# ---------------------------------------------------------------------------
class _ClusterProcs:
    """Spawns, kills and restarts the replicas, placed by ``ctx``."""

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
        args = self.args
        shared = (args.system, args.n, self.secret, args.seed, self.wal_dir)
        proc = self.ctx.Process(
            target=_replica_main,
            args=(node_id, child_conn, port, *shared, self.workload),
            daemon=True,
        )
        proc.start()
        self.procs[node_id] = proc
        self.conns[node_id] = parent_conn

    def spawn_all(self) -> None:
        for node_id in range(self.args.n):
            self.spawn(node_id)

    async def _expect(self, node_id: int, expected: str) -> tuple:
        """The child's next pipe message, which must be ``expected``."""
        message = await _recv(self.conns[node_id])
        if message[0] != expected:
            raise ReplicaProcessError(
                f"replica {node_id} sent {message!r} instead of {expected!r}"
            )
        return message

    async def handshake(self, node_id: int) -> Optional[Dict[str, Any]]:
        """Read the child's port announcement; returns its recovery report."""
        message = await self._expect(node_id, "port")
        self.ports[node_id] = message[2]
        return message[3]

    async def finish_boot(self, node_id: int) -> None:
        self.conns[node_id].send(self.peer_map)
        await self._expect(node_id, "ready")

    async def wait_caught_up(self, node_id: int) -> Dict[str, Any]:
        return (await self._expect(node_id, "caught_up"))[2]

    async def boot(self, loadgen_address: Tuple[str, int]) -> None:
        """First boot of the spawned replicas: every port in, the peer
        map (replicas, and the load generator as node ``n``) out."""
        for node_id in self.procs:
            await self.handshake(node_id)
        self.peer_map = {
            node_id: ("127.0.0.1", port) for node_id, port in self.ports.items()
        }
        self.peer_map[self.args.n] = loadgen_address
        for node_id in self.procs:
            await self.finish_boot(node_id)
        if self.wal_dir is not None:
            # Every child reports an (empty) recovery before load starts.
            for node_id in self.procs:
                await self.wait_caught_up(node_id)

    def kill(self, node_id: int) -> None:
        """No flush, no goodbye; recovery must come from the WAL."""
        self.down.add(node_id)
        self.procs[node_id].kill()

    async def restart(self, node_id: int) -> Optional[Dict[str, Any]]:
        """Respawn on the same port; returns the child's recovery report."""
        self.spawn(node_id, port=self.ports[node_id])
        self.down.discard(node_id)
        recovery = await self.handshake(node_id)
        await self.finish_boot(node_id)
        return recovery

    def poll_unexpected(self) -> None:
        """Fail fast when a replica dies outside the fault plan."""
        for node_id, proc in self.procs.items():
            if node_id not in self.down and proc.exitcode is not None:
                raise ReplicaProcessError(
                    f"replica {node_id} exited unexpectedly "
                    f"(exitcode {proc.exitcode})"
                )

    async def shutdown(self) -> None:
        """Let the replicas, told to stop, exit; then kill the rest."""
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(
            proc.exitcode is None for proc in self.procs.values()
        ):
            await asyncio.sleep(0.05)
        self.terminate()

    def terminate(self) -> None:
        for proc in self.procs.values():
            if proc.exitcode is None:
                proc.kill()


def _latency_ms(latencies: List[float]) -> Dict[str, float]:
    """Confirm-latency summary of a report, in milliseconds."""
    if not latencies:
        return {}
    summary = summarize_values(latencies)
    return {
        name: round(getattr(summary, name) * 1e3, 2)
        for name in ("p50", "p95", "p99", "mean")
    }


async def _wire_cost(loadgen) -> Dict[str, float]:
    """The report's wire fields.  Per confirmed payment, everything
    written to a socket (frame headers included) by the load generator
    and the replica processes alive now — what the wire format costs end
    to end; and the load generator's own side: trains written/read and
    how full they ran (1.0 would mean one-message frames again)."""
    wire = [*(await loadgen.collect("wire")).values(), _wire_reading(loadgen)]
    confirmed = max(loadgen.confirmed, 1)
    stats = loadgen.transport.stats
    return {
        "loadgen_frames_sent": stats.frames_sent,
        "loadgen_frames_received": stats.frames_received,
        "loadgen_payloads_sent": stats.payloads_sent,
        "payloads_per_frame": round(
            stats.payloads_sent / max(stats.frames_sent, 1), 2
        ),
        "wire_bytes_per_payment": round(
            sum(reading["bytes_sent"] for reading in wire) / confirmed, 1
        ),
        "wire_payloads_per_payment": round(
            sum(reading["payloads_sent"] for reading in wire) / confirmed, 2
        ),
    }


def _by_replica(readings: Dict[int, Dict[str, int]], key: str) -> Dict[str, int]:
    """One counter of a control round, keyed the way reports are."""
    return {str(k): readings[k][key] for k in sorted(readings)}


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------
async def _run(
    args, events, genesis, cluster, transport, loadgen
) -> Dict[str, Any]:
    """One scenario against the live cluster: warm-up, the measurement
    window with the fault timeline ``events`` running (none in bench
    mode), recoveries, drain, and the verdict every report carries."""
    # Every replica starts from the genesis view, and keeps its last
    # view while it sends none.  dep_grace=1: live views are captured
    # milliseconds apart, so a freshly materialized dependency may
    # precede its crediting payment in a settler's view by one sample.
    start = genesis_view(genesis, deps=args.system == "astro2")
    monitor = InvariantMonitor(
        dict.fromkeys(range(args.n), start),
        _build_directory(args.n, list(genesis)),
        dep_grace=1,
    )

    clock = transport.clock
    recoveries: Dict[int, Dict[str, Any]] = {}
    recovery_tasks: List[asyncio.Task] = []
    t0 = clock.now  # rebound after warmup, before the injector runs

    def crash_fn(node_id: int) -> None:
        print(f"[chaos] t={clock.now - t0:.2f}s killing replica {node_id}")
        cluster.kill(node_id)

    async def recover_fn(node_id: int) -> None:
        started = clock.now
        print(f"[chaos] t={started - t0:.2f}s restarting replica {node_id}")
        recovery = await cluster.restart(node_id)
        entry = recoveries.setdefault(node_id, {})
        entry["recovery"] = recovery
        entry["restart_s"] = round(clock.now - started, 3)

        async def _await_catch_up() -> None:
            info = await cluster.wait_caught_up(node_id)
            entry.update(info)
            entry["recovery_latency_s"] = round(clock.now - started, 3)
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

    async def sample(timeout: float) -> Dict[int, Any]:
        """One monitor sample over whoever answers within ``timeout``."""
        views = await loadgen.collect("state", timeout)
        monitor.sample(clock.now - t0, views)
        return views

    monitor_stop = asyncio.Event()

    async def monitor_loop() -> None:
        while not monitor_stop.is_set():
            await sample(MONITOR_INTERVAL * 0.5)
            await asyncio.sleep(MONITOR_INTERVAL)

    wall_start = time.monotonic()
    # Warmup: bring connections up and fill the batching pipeline.
    await loadgen.run(args.rate, args.warmup)
    before = await loadgen.collect("stats")
    t0 = clock.now
    chaos_task = asyncio.ensure_future(injector.run(t0))
    # A view ships whole xlogs — O(history) per sample on the load
    # generator's own loop — so the window is watched only while
    # something is being done to the cluster.
    monitor_task = asyncio.ensure_future(monitor_loop()) if events else None
    await loadgen.run(args.rate, args.duration)
    measure_elapsed = clock.now - t0
    after = await loadgen.collect("stats")

    await chaos_task  # the full fault schedule has executed
    if recovery_tasks:
        await asyncio.wait(recovery_tasks, timeout=DRAIN_TIMEOUT)
    drained = await loadgen.drain(DRAIN_TIMEOUT, RETRY_INTERVAL)
    monitor_stop.set()
    if monitor_task is not None:
        await monitor_task

    deltas = {
        str(k): after[k]["settled"] - before[k]["settled"]
        for k in sorted(after)
        if k in before
    }
    # A payment counts as live throughput once settled at *every*
    # replica (the conservative reading; per-replica deltas are reported
    # alongside).
    measured_pps = min(deltas.values()) / measure_elapsed if deltas else 0.0
    # Read before the verdict round: its state views are not payment
    # traffic.
    wire_cost = await _wire_cost(loadgen)
    paced = await loadgen.collect("collector")
    final = await loadgen.collect("stats")
    pending = loadgen.pending  # read with ``final``: one instant for both

    # Verdict round: state fingerprints on every replica (a recovered one
    # must match the never-crashed controls) and the invariants over the
    # final views, sampled twice so the one-sample dependency grace can
    # run out.  A view ships whole xlogs, which can take many seconds:
    # every replica that is up is waited for, and a view that did not
    # arrive is reported missing, never as a disagreement.
    await sample(DRAIN_TIMEOUT)
    final_views = await sample(DRAIN_TIMEOUT)
    fingerprints = {
        str(node_id): view["fingerprint"]
        for node_id, view in sorted(final_views.items())
    }
    views_missing = sorted(set(range(args.n)) - set(final_views))
    fingerprints_equal = len(set(fingerprints.values())) == 1
    agreed = fingerprints_equal and not views_missing
    verdict = monitor.verdict()
    # Unconfirmed is not yet failed: a representative *holds* a payment
    # until it can prove funds (Listing 7; Astro I queues it everywhere
    # instead).  Stranded is what nobody holds.
    held = _by_replica(final, "held")
    stranded = pending - sum(held.values())
    wall_elapsed = time.monotonic() - wall_start
    return {
        "system": args.system,
        "n": args.n,
        "transport": "tcp-localhost",
        "offered_pps": args.rate,
        "warmup_s": args.warmup,
        "duration_s": args.duration,
        "timeline": args.chaos or "",
        "wal_dir": cluster.wal_dir,
        "measured_pps": round(measured_pps, 1),
        "measure_elapsed_s": round(measure_elapsed, 3),
        "settled_delta_by_replica": deltas,
        "submitted": loadgen.submitted,
        "confirmed": loadgen.confirmed,
        "retries": loadgen.retries,
        "duplicate_confirms": loadgen.duplicate_confirms,
        "unconfirmed": pending,
        "held_final": held,
        "queued_final": _by_replica(final, "queued"),
        "stranded": stranded,
        "drained": drained,
        "settled_final_by_replica": _by_replica(final, "settled"),
        "rejected_final": _by_replica(final, "rejected"),
        "confirm_latency_ms": _latency_ms(loadgen.latencies),
        **wire_cost,
        "fingerprints": fingerprints,
        "fingerprints_equal": fingerprints_equal,
        "views_missing": views_missing,
        # The pacer's (transport/collector.py) share of wall time.
        "full_collections_by_replica": _by_replica(paced, "full_collections"),
        "peak_rss_mb_by_replica": _by_replica(paced, "peak_rss_mb"),
        "full_collection_share": round(
            sum(reading["full_seconds"] for reading in paced.values())
            / (max(len(paced), 1) * wall_elapsed), 4
        ),
        "monitor": verdict,
        "recoveries": {str(k): v for k, v in sorted(recoveries.items())},
        "injected": [
            [round(t, 3), action, payload]
            for t, action, payload in injector.log
        ],
        "ok": agreed and stranded == 0 and verdict["ok"],
        "wall_elapsed_s": round(wall_elapsed, 3),
    }


async def _orchestrate(args, cluster: _ClusterProcs, events) -> Dict[str, Any]:
    transport = TcpTransport(args.n, cluster.secret)
    await transport.start()
    genesis = default_genesis(args.n, cluster.workload)
    workload = make_workload(
        cluster.workload, sorted(genesis, key=repr), seed=args.seed
    )
    loadgen = _LoadGen(transport, args.n, genesis, workload)
    loadgen.down = cluster.down  # a collect() waits for who is up
    await cluster.boot(("127.0.0.1", transport.port))
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

    main_task = asyncio.ensure_future(
        _run(args, events, genesis, cluster, transport, loadgen)
    )
    watchdog_task = asyncio.ensure_future(watchdog())
    try:
        await asyncio.wait(
            {main_task, watchdog_task}, return_when=asyncio.FIRST_COMPLETED
        )
        if watchdog_task.done():
            # Only an unexpected replica death completes the watchdog.
            raise watchdog_task.exception()
        report = main_task.result()
        for node_id in range(args.n):
            if node_id not in cluster.down:
                transport.send(node_id, Shutdown())
        await asyncio.sleep(0.2)
    finally:
        main_task.cancel()
        watchdog_task.cancel()
        await asyncio.gather(main_task, watchdog_task, return_exceptions=True)
        await transport.close()
    await cluster.shutdown()
    return report


def run_cluster(args) -> Dict[str, Any]:
    """Spawn the replica processes, drive load, return the report."""
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
    events = parse_timeline(args.chaos or "")  # bench mode: no events
    check_replica_ids(events, args.n)
    wal_dir = args.wal_dir
    if wal_dir is None and any(event.action == "crash" for event in events):
        # What is killed must have somewhere to come back from.
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
             "state; defaults to a temp dir when --chaos crashes a replica)",
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
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised by CI live-smoke
    raise SystemExit(main())

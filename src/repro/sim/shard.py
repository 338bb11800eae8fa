"""Asynchronous conservative intra-simulation parallelism (channel clocks).

One full-scale Fig. 3 cell (Astro at N=100) is a single O(N²) simulation
pinned to one core — scenario-level parallelism (``repro.bench.parallel``)
cannot help *inside* it.  This module partitions the replicas of ONE
simulation across worker processes and paces them with per-channel
conservative clocks — classic Chandy–Misra–Bryant null-message
synchronization, not windowed barriers:

* **Channel lookahead.**  For every ordered pair of shards ``p → q`` the
  latency model bounds how soon a message sent by ``p`` can arrive at
  ``q``: NIC serialization plus the pair's minimum one-way delay
  (:meth:`~repro.sim.latency.LatencyModel.channel_lookaheads`).  Shards
  in distant regions face each other over a wide floor (≥ 4 ms on the
  paper's EU mesh) even when other channels are narrow — no global
  minimum throttles the whole fleet.
* **Null-message pacing.**  Workers exchange cross-shard sends directly
  over FIFO pipes; every message piggybacks the sender's *floor* — a
  promise never to execute (hence send) below that simulated time.  A
  worker keeps one clock per **incoming** channel (the peer's last
  floor) and advances its local event loop to the minimum over incoming
  channels of ``clock + channel lookahead`` only.  Floors advance even
  when no payload flows (the null message), so a quiet channel never
  stalls its receiver for long, and an *empty* shard (no crossing node
  pair, infinite lookahead) never constrains anyone at all.
* **Canonical per-channel merge.**  FIFO pipes deliver a channel's
  entries before the floor that covers them; receivers insert each
  channel batch in canonical ``(arrival_time, src, src_seq)`` order, so
  the protocol-visible history is a pure function of scenario + seed —
  independent of shard count, worker scheduling, and start method.
* **Replicated drivers.**  Load generation, fault-free in open-loop
  measurement runs, is a deterministic function of (workload seed,
  tick schedule).  Every worker builds the *full* system and runs the
  same driver; it executes submissions only for replicas it owns, so
  no central injector needs to ship per-payment messages across shards.

A probe ends when a worker has run to the horizon *and* every incoming
clock has passed it: in-flight cross-shard arrivals beyond the horizon
are then guaranteed received and parked in the local calendar — exactly
the undelivered in-flight state the serial engine holds — which keeps
warm probe chains byte-identical.

Determinism requirements (validated at worker start):

* the latency model must be *pair-decomposable*
  (:attr:`~repro.sim.latency.LatencyModel.pair_decomposable`): each
  (src, dst) pair samples its delays from its own deterministic stream,
  so draws do not depend on the global send interleaving;
* it must draw *continuous* delays
  (:attr:`~repro.sim.latency.LatencyModel.continuous_delays`): exact
  arrival-time ties between distinct sends would be ordered by local
  scheduling seq serially but by the channel merge here, and which pairs
  cross shards depends on the partition — continuous jitter makes such
  ties measure-zero;
* every populated channel's lookahead must be positive (otherwise there
  is no pacing bound);
* all workers must share one interpreter hash seed — signature tokens
  and digests use ``hash()``.  ``fork`` inherits it; under ``spawn``
  the coordinator pins ``PYTHONHASHSEED`` for its workers.

The engine currently supports the Astro systems driven by open-loop
probes (the Fig. 3 peak-search cells this exists for).  BFT cells stay
serial: consensus replicas schedule timeout machinery at construction,
which would fire on non-owned stale state in every worker.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import queue
import threading
from heapq import heappush as _heappush
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.persistence import state_fingerprint

__all__ = [
    "SHARDS_ENV",
    "ShardedOpenLoop",
    "ShardingUnsupported",
    "resolve_shards",
    "shard_owner",
    "state_fingerprints",
]

#: Environment variable selecting the shard count for one simulation:
#: unset/"1" = the serial engine (byte-identical to no sharding at all),
#: an integer > 1 = that many worker processes, "auto"/"0" = one per
#: available CPU, capped at _AUTO_SHARD_CAP (see resolve_shards).
SHARDS_ENV = "REPRO_SIM_SHARDS"

#: Ceiling for ``REPRO_SIM_SHARDS=auto``.  Channel-clock pacing scales
#: with cores (each shard exchanges floors with every peer, so per-slice
#: overhead grows with the shard count); past ~8 shards the mesh chatter
#: eats the residual speedup on the N ≤ 100 cells this engine serves.
#: Explicit counts are honored verbatim.
_AUTO_SHARD_CAP = 8

#: Pickle protocol for cross-shard message buffers.  One dumps() per
#: (slice, destination shard): payload objects shared by many arrivals
#: (a broadcast batch) are serialized once per buffer via the pickle memo.
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


class ShardingUnsupported(RuntimeError):
    """The scenario cannot run sharded (no lookahead, unsupported system)."""


def resolve_shards(shards: Optional[int] = None) -> int:
    """Shard count: explicit argument, else ``REPRO_SIM_SHARDS``, else 1.

    ``auto`` is one shard per usable CPU, capped at
    :data:`_AUTO_SHARD_CAP`: per-channel clocks keep distant shards
    loosely coupled past one shard per WAN region (regions split into
    sub-shards), but floor chatter is all-to-all, so unbounded counts
    stop paying.  Explicit counts are honored verbatim (an operator may
    know better).
    """
    if shards is None:
        # Lazy import: bench.parallel lazily imports this module in the
        # other direction, so neither import runs at module load.
        from ..bench.parallel import parse_count_env, usable_cpus

        return parse_count_env(
            SHARDS_ENV, lambda: min(usable_cpus(), _AUTO_SHARD_CAP)
        )
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    return shards


def shard_owner(node_id: int, shards: int) -> int:
    """The shard owning ``node_id`` (round-robin: balanced for the
    round-robin client→representative assignment of the builders)."""
    return node_id % shards


def state_fingerprints(system: Any) -> Dict[int, str]:
    """SHA-256 fingerprint of every replica's protocol state.

    The byte-identity witness used by the shard-determinism tests: the
    serial engine computes it in-process, the sharded engine merges each
    worker's fingerprints of the replicas it owns.
    """
    return {
        replica.node_id: state_fingerprint(replica.state)
        for replica in system.replicas
    }


def _settled_counts(system: Any, owned: Optional[frozenset] = None) -> Dict[int, int]:
    return {
        replica.node_id: replica.settled_count
        for replica in system.replicas
        if owned is None or replica.node_id in owned
    }


# ---------------------------------------------------------------------------
# Channel clocks
# ---------------------------------------------------------------------------


class _ChannelClocks:
    """Per-incoming-channel conservative clocks.

    ``floors[peer]`` is the channel lookahead peer → here (how far any
    message lags its send time); ``clock[peer]`` is the peer's last
    advertised floor — a promise that it will not execute, hence not
    send, below that simulated time.  The safe local horizon is the
    minimum over incoming channels of ``clock + lookahead``: every
    not-yet-received cross-shard arrival lands at or beyond it.

    Clocks are monotone: a stale floor (pipes are FIFO, so this only
    happens when a payload ships without a floor advance) is ignored.
    """

    __slots__ = ("floors", "clock")

    def __init__(self, floors: Dict[int, float], start: float) -> None:
        self.floors = dict(floors)
        self.clock: Dict[int, float] = {peer: start for peer in floors}

    def update(self, peer: int, floor: float) -> bool:
        """Refresh one channel from a (null-)message timestamp."""
        if floor > self.clock[peer]:
            self.clock[peer] = floor
            return True
        return False

    def horizon(self) -> float:
        """Largest simulated time safe to execute up to.

        A stalled channel (no floor refresh) pins the horizon at its
        last clock plus its lookahead — the conservative lower bound.
        An unpopulated channel has an infinite lookahead and never
        constrains; with no incoming channels at all the horizon is
        unbounded.
        """
        clock = self.clock
        floors = self.floors
        return min(
            (clock[peer] + floors[peer] for peer in floors),
            default=float("inf"),
        )

    def all_at_least(self, time: float) -> bool:
        """True when every incoming clock has reached ``time``."""
        return all(value >= time for value in self.clock.values())


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _SampleRecorder:
    """Latency recorder that keeps ``(completed_at, latency)`` pairs.

    The cross-shard merge needs completion times to reconstruct the
    serial engine's sample order; a worker only observes confirmations
    of the replicas it owns.  Window attributes are pinned by
    :func:`repro.bench.runner.setup_open_loop`.
    """

    def __init__(self) -> None:
        self.window_start = 0.0
        self.window_end = float("inf")
        self.samples: List[Tuple[float, float]] = []

    def record(self, submitted_at: float, completed_at: float) -> None:
        if self.window_start <= completed_at <= self.window_end:
            self.samples.append((completed_at, completed_at - submitted_at))


class _MeshSender(threading.Thread):
    """Background writer for a worker's outgoing mesh pipes.

    Blocking ``Connection.send`` on a full pipe while the peer blocks
    sending back is the classic two-way-pipe deadlock; routing all
    outgoing traffic through one thread keeps the main loop free to
    drain incoming channels regardless of backpressure.  A single queue
    serialized by one thread preserves per-channel FIFO order, which the
    canonical merge relies on.
    """

    def __init__(self, conns: Dict[int, Any]) -> None:
        super().__init__(daemon=True, name="shard-mesh-sender")
        self._conns = conns
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self.error: Optional[BaseException] = None

    def post(self, peer: int, payload: tuple) -> None:
        self._queue.put((peer, payload))

    def stop(self) -> None:
        self._queue.put(None)

    def run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            peer, payload = item
            try:
                self._conns[peer].send(payload)
            except (OSError, ValueError) as exc:
                # Peer (or the whole fleet) is gone; surface to the main
                # loop, which relays a typed error to the coordinator.
                self.error = exc
                return


class _WorkerState:
    """Everything one shard worker holds between commands."""

    def __init__(self, spec: Dict[str, Any], index: int, count: int) -> None:
        self.spec = spec
        self.index = index
        self.count = count
        self.system: Any = None
        self.owned: frozenset = frozenset()
        self.owner_map: Dict[int, int] = {}
        self.outbox: List[tuple] = []
        self.lookahead = 0.0
        #: Incoming channel lookaheads {peer shard: seconds}; inf for
        #: channels no node pair can use (an empty shard on either end).
        self.channel_floors: Dict[int, float] = {}

    def build(self) -> None:
        from ..bench.systems import SYSTEM_BUILDERS

        spec = self.spec
        builder = SYSTEM_BUILDERS[spec["system"]]
        system = builder(
            spec["size"], seed=spec["seed"], **(spec.get("builder_kwargs") or {})
        )
        latency = system.network.latency
        lookahead = latency.min_delay()
        if lookahead <= 0.0:
            raise ShardingUnsupported(
                f"latency model {type(latency).__name__} provides no "
                f"lookahead (min_delay() == {lookahead}); cannot shard"
            )
        if not latency.pair_decomposable:
            raise ShardingUnsupported(
                f"latency model {type(latency).__name__} is not "
                "pair-decomposable: per-message draws would depend on the "
                "shard count (build it with pair_streams=True)"
            )
        if not latency.continuous_delays:
            raise ShardingUnsupported(
                f"latency model {type(latency).__name__} produces exact "
                "arrival-time ties (no continuous jitter), whose order "
                "would depend on the shard partition; cannot shard"
            )
        try:
            node_ids = system.replica_node_ids
        except AttributeError:
            raise ShardingUnsupported(
                f"system {spec['system']!r} does not expose replica_node_ids; "
                "intra-simulation sharding supports the Astro systems"
            ) from None
        count = self.count
        # Topology-aware partition (pure function of the latency model,
        # so every worker computes the identical map).  The scalar
        # lookahead is the tightest cross-shard floor — reporting and
        # sanity only; pacing runs on the per-channel floors below.
        owner, lookahead = latency.shard_partition(node_ids, count)
        if lookahead <= 0.0:
            raise ShardingUnsupported(
                f"latency model {type(latency).__name__} provides no "
                f"cross-shard lookahead ({lookahead}); cannot shard"
            )
        floors = latency.channel_lookaheads(node_ids, owner)
        channel_floors = {
            peer: floors.get((peer, self.index), float("inf"))
            for peer in range(count)
            if peer != self.index
        }
        for peer, floor in channel_floors.items():
            if floor <= 0.0:
                raise ShardingUnsupported(
                    f"channel {peer}→{self.index} has no lookahead "
                    f"({floor}); cannot pace shards"
                )
        self.owner_map = owner
        owned = frozenset(
            node_id for node_id in node_ids if owner[node_id] == self.index
        )
        self.outbox = []
        system.network.configure_sharding(owned, self.outbox)
        # Replicated drivers call system.submit for *every* generated
        # payment; only the owner of the spender's representative executes
        # it.  Shadow the bound method with the ownership filter.
        original_submit = system.submit
        rep_map = system.directory.rep_map

        def filtered_submit(spender, beneficiary, amount):
            if rep_map[spender] in owned:
                return original_submit(spender, beneficiary, amount)
            return None

        system.submit = filtered_submit
        self.system = system
        self.owned = owned
        self.lookahead = lookahead
        self.channel_floors = channel_floors


def _next_event_time(sim: Any) -> float:
    heap = sim._heap
    return heap[0][0] if heap else float("inf")


def _insert_arrivals(system: Any, blobs: Sequence[bytes]) -> None:
    """Merge one channel's cross-shard arrivals into the local calendar.

    Canonical ``(arrival_time, src, src_seq)`` order per channel batch:
    sequence numbers are unique per source, so the sort never reaches
    the payload, and two same-time arrivals at one destination execute
    in an order that is a pure function of message content — not of
    shard count or batch timing.  FIFO channels deliver earlier batches
    first, so a source's entries always insert in send order.
    """
    if not blobs:
        return
    entries: List[tuple] = []
    for blob in blobs:
        entries.extend(pickle.loads(blob))
    entries.sort(key=lambda entry: entry[:3])
    sim = system.sim
    heap = sim._heap
    arrive = system.network._arrive
    for time, src, _src_seq, dst, payload, recv_cost in entries:
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(heap, (time, seq, arrive, (src, dst, payload, recv_cost)))


def _drain_outbox(state: _WorkerState) -> Dict[int, bytes]:
    """Group buffered cross-shard sends by destination shard.

    Returns ``{shard: pickled entries}`` ready to ship on the mesh,
    in outbox (send) order — the receiver applies the canonical sort.
    """
    outbox = state.outbox
    if not outbox:
        return {}
    owner = state.owner_map
    groups: Dict[int, List[tuple]] = {}
    for entry in outbox:
        groups.setdefault(owner[entry[3]], []).append(entry)
    outbox.clear()
    return {
        shard: pickle.dumps(entries, _PICKLE_PROTOCOL)
        for shard, entries in groups.items()
    }


def _drain_channels(
    recv_conns: Dict[int, Any], clocks: _ChannelClocks, system: Any
) -> bool:
    """Non-blocking drain of every incoming channel.

    Applies each message's payload (entries, canonically merged) and
    null-message timestamp (floor refresh).  Returns True when any
    clock advanced.
    """
    progressed = False
    for peer, conn in recv_conns.items():
        while conn.poll():
            try:
                floor, blob = conn.recv()
            except EOFError:
                raise RuntimeError(
                    f"shard peer {peer} disconnected mid-probe"
                ) from None
            if blob is not None:
                _insert_arrivals(system, (blob,))
            if clocks.update(peer, floor):
                progressed = True
    return progressed


def _worker_probe(
    conn,
    state: _WorkerState,
    params: Dict[str, Any],
    recv_conns: Dict[int, Any],
    sender: _MeshSender,
) -> None:
    from ..bench.runner import finish_open_loop, setup_open_loop

    if params["fresh"] or state.system is None:
        # Scenario boundary: drop the previous probe's (cyclic) system and
        # reclaim it before the rebuild (repro.sim.events, "Collector
        # policy"), so a search never holds two systems per worker.
        state.system = None
        gc.collect()
        state.build()
    system = state.system
    sim = system.sim
    recorder = _SampleRecorder()
    driver, meter, recorder, window_start, window_end = setup_open_loop(
        system,
        rate=params["rate"],
        duration=params["duration"],
        warmup=params["warmup"],
        seed=params["seed"],
        recorder=recorder,
    )
    until = window_end + params["drain"]
    conn.send(
        (
            "probe_info",
            window_start,
            window_end,
            until,
            state.lookahead,
            _next_event_time(sim),
        )
    )
    # --- asynchronous conservative loop -------------------------------
    # All workers enter the probe at the same simulated time (fresh
    # build: 0; warm probe: the previous probe's horizon), which is the
    # valid initial lower bound for every channel clock.
    clocks = _ChannelClocks(state.channel_floors, sim.now)
    floor_sent: Dict[int, float] = {
        peer: float("-inf") for peer in state.channel_floors
    }
    published = sim.now
    while True:
        if sender.error is not None:
            raise RuntimeError(f"mesh send failed: {sender.error!r}")
        progressed = _drain_channels(recv_conns, clocks, system)
        horizon = clocks.horizon()
        run_to = min(horizon, until)
        ran = False
        if run_to > sim.now:
            sim.run(until=run_to)
            ran = True
        # Outgoing floor: nothing can execute before the earlier of the
        # next local event and the incoming-channel horizon.  Kept as a
        # running max — a later cross-shard arrival may pull next-event
        # back below an already-published promise, but never below the
        # horizon that promise was derived from, so the promise holds.
        floor = min(_next_event_time(sim), horizon)
        if floor > published:
            published = floor
        groups = _drain_outbox(state) if ran else {}
        for peer in floor_sent:
            blob = groups.get(peer)
            # A floor >= until is the last word a peer needs: it may
            # break right after reading it, so publishing any further
            # refresh would strand the message in the pipe and poison
            # the next probe's channel clocks.
            if blob is not None or (
                published > floor_sent[peer] and floor_sent[peer] < until
            ):
                floor_sent[peer] = published
                sender.post(peer, (published, blob))
        if sim.now >= until and clocks.all_at_least(until):
            break
        if not (ran or progressed):
            # Nothing to do until a peer advances: block on the mesh
            # (and the control pipe, so coordinator teardown wakes us).
            ready = _connection_wait([*recv_conns.values(), conn])
            if conn in ready:
                message = conn.recv()  # EOFError propagates = teardown
                if message[0] == "exit":
                    # Coordinator is tearing the fleet down mid-probe.
                    raise EOFError("coordinator aborted probe")
                raise RuntimeError(
                    f"unexpected mid-probe command {message[0]!r}"
                )
    finish_open_loop(system, driver)
    conn.send(
        (
            "probe_result",
            {
                "bucket_width": meter.bucket_width,
                "buckets": dict(meter._buckets),
                "samples": recorder.samples,
                "injected": driver.injected,
                "confirmed": driver.confirmed,
                "window_start": window_start,
                "window_end": window_end,
            },
        )
    )


def _worker_main(
    conn,
    spec: Dict[str, Any],
    index: int,
    count: int,
    recv_conns: Dict[int, Any],
    send_conns: Dict[int, Any],
) -> None:
    state = _WorkerState(spec, index, count)
    sender = _MeshSender(send_conns)
    sender.start()
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "probe":
                _worker_probe(conn, state, message[1], recv_conns, sender)
            elif kind == "build":
                state.build()
                conn.send(("built", state.lookahead))
            elif kind == "fingerprint":
                system = state.system
                if system is None:
                    conn.send(("fingerprints", {}, {}))
                else:
                    owned = state.owned
                    prints = {
                        node_id: digest
                        for node_id, digest in state_fingerprints(system).items()
                        if node_id in owned
                    }
                    conn.send(
                        ("fingerprints", prints, _settled_counts(system, owned))
                    )
            elif kind == "exit":
                return
            else:  # pragma: no cover - protocol bug guard
                raise RuntimeError(f"unknown command {kind!r}")
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown races
        pass
    except ShardingUnsupported as exc:
        # Typed relay: the coordinator re-raises this as
        # ShardingUnsupported so callers can fall back to the serial
        # engine (repro.bench.jobs does).
        try:
            conn.send(("error", str(exc), "unsupported"))
        except OSError:  # pragma: no cover - coordinator already gone
            pass
    except Exception:
        import traceback

        try:
            conn.send(("error", traceback.format_exc(), "crash"))
        except OSError:  # pragma: no cover - coordinator already gone
            pass
    finally:
        sender.stop()
        sender.join(timeout=5)
        for peer_conn in (*recv_conns.values(), *send_conns.values()):
            try:
                peer_conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        conn.close()


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


class ShardedOpenLoop:
    """Coordinator for one sharded simulation driven by open-loop probes.

    Workers persist across probes (peak searches reuse warm systems) and
    pace each other directly over a full mesh of FIFO pipes; the
    coordinator only issues commands and merges results.
    :meth:`probe` is a drop-in for the serial build-and-
    :func:`~repro.bench.runner.run_open_loop` cycle and returns a merged
    :class:`~repro.bench.runner.RunResult` that is byte-identical to the
    serial engine's on the same scenario.

    ``spec`` is the picklable scenario description:
    ``{"system": name, "size": N, "seed": int, "builder_kwargs": {...}}``
    against :data:`repro.bench.systems.SYSTEM_BUILDERS`.
    """

    def __init__(
        self,
        spec: Dict[str, Any],
        shards: int,
        drain: float = 0.5,
        start_method: Optional[str] = None,
    ) -> None:
        if shards < 2:
            raise ValueError(
                f"ShardedOpenLoop needs >= 2 shards (got {shards}); "
                "use the serial engine for 1"
            )
        if spec.get("system") not in ("astro1", "astro2"):
            raise ShardingUnsupported(
                f"intra-simulation sharding supports the Astro systems; "
                f"got {spec.get('system')!r}"
            )
        self.spec = dict(spec)
        self.shards = shards
        self.drain = drain
        context = multiprocessing.get_context(start_method)
        self._connections = []
        self._processes = []
        # One one-way pipe per ordered shard pair: worker p writes
        # send_maps[p][q], worker q reads recv_maps[q][p].  FIFO order
        # per channel is what lets floors cover earlier payloads.
        recv_maps: List[Dict[int, Any]] = [{} for _ in range(shards)]
        send_maps: List[Dict[int, Any]] = [{} for _ in range(shards)]
        for src in range(shards):
            for dst in range(shards):
                if src == dst:
                    continue
                reader, writer = context.Pipe(duplex=False)
                recv_maps[dst][src] = reader
                send_maps[src][dst] = writer
        # Workers must agree on the interpreter hash seed: signature
        # tokens and digests are hash()-derived, and a message signed in
        # one worker is verified in another.  fork inherits the parent's
        # seed; spawn starts fresh interpreters, so pin the environment
        # (histories themselves are hash-seed-independent, so the pinned
        # value does not matter — only that it is shared).
        pin_applied = False
        previous_value: Optional[str] = None
        if context.get_start_method() != "fork":
            previous_value = os.environ.get("PYTHONHASHSEED")
            # Absent, "" and "random" all randomize per interpreter —
            # every one of them must be pinned for the workers.
            if previous_value is None or previous_value in ("", "random"):
                os.environ["PYTHONHASHSEED"] = "0"
                pin_applied = True
        try:
            for index in range(shards):
                ours, theirs = context.Pipe()
                process = context.Process(
                    target=_worker_main,
                    args=(
                        theirs,
                        self.spec,
                        index,
                        shards,
                        recv_maps[index],
                        send_maps[index],
                    ),
                    daemon=True,
                )
                process.start()
                theirs.close()
                self._connections.append(ours)
                self._processes.append(process)
        finally:
            if pin_applied:
                if previous_value is None:
                    del os.environ["PYTHONHASHSEED"]
                else:
                    os.environ["PYTHONHASHSEED"] = previous_value
            # The coordinator is not part of the mesh: drop its copies
            # so worker exits propagate EOF to their peers.
            for maps in (recv_maps, send_maps):
                for per_worker in maps:
                    for connection in per_worker.values():
                        connection.close()

    # ------------------------------------------------------------------
    # Protocol plumbing
    # ------------------------------------------------------------------
    def _raise_error(self, message: tuple) -> None:
        self.close()
        if len(message) > 2 and message[2] == "unsupported":
            raise ShardingUnsupported(message[1])
        raise RuntimeError(f"shard worker failed:\n{message[1]}")

    def _recv(self, connection) -> tuple:
        message = connection.recv()
        if message[0] == "error":
            self._raise_error(message)
        return message

    def _collect(self) -> List[tuple]:
        """One message from every worker, serviced in readiness order.

        Workers pace each other directly, so worker 0 may legitimately
        finish last; a worker that errors (or dies) must be noticed even
        while its peers are still blocked on it — a fixed recv order
        would deadlock behind the stuck pipe.
        """
        pending = {
            connection: index
            for index, connection in enumerate(self._connections)
        }
        messages: List[Optional[tuple]] = [None] * len(pending)
        while pending:
            for connection in _connection_wait(list(pending)):
                index = pending.pop(connection)
                try:
                    message = connection.recv()
                except EOFError:
                    self.close()
                    raise RuntimeError(
                        f"shard worker {index} died without reporting"
                    ) from None
                if message[0] == "error":
                    self._raise_error(message)
                messages[index] = message
        return messages

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def prepare(self) -> float:
        """(Re)build every worker's system now; returns the lookahead.

        Splits construction cost out of the next probe: after
        ``prepare()``, ``probe(fresh=False)`` measures exactly what the
        serial engine's build-then-run cycle measures after ``factory()``
        — the wall-clock comparison the perf tests make.
        """
        for connection in self._connections:
            connection.send(("build",))
        lookaheads = {message[1] for message in self._collect()}
        if len(lookaheads) != 1:
            self.close()
            raise RuntimeError(f"shard lookaheads diverged: {lookaheads}")
        return lookaheads.pop()

    def probe(
        self,
        rate: float,
        duration: float,
        warmup: float,
        fresh: bool = True,
        seed: Optional[int] = None,
    ) -> Any:
        """Run one open-loop measurement across the shard fleet."""
        params = {
            "rate": rate,
            "duration": duration,
            "warmup": warmup,
            "drain": self.drain,
            "seed": self.spec["seed"] if seed is None else seed,
            "fresh": fresh,
        }
        for connection in self._connections:
            connection.send(("probe", params))
        infos = self._collect()
        reference = infos[0][1:5]
        for info in infos[1:]:
            if info[1:5] != reference:
                self.close()
                raise RuntimeError(
                    f"shard clocks diverged at probe start: {infos!r}"
                )
        # Workers now pace each other over the mesh; the coordinator
        # just waits for every merged result.
        parts = [message[1] for message in self._collect()]
        return self._merge(parts, rate, duration)

    @staticmethod
    def _merge(parts: List[Dict[str, Any]], rate: float, duration: float):
        from ..bench.runner import RunResult
        from .metrics import ThroughputMeter, summarize_values

        first = parts[0]
        meter = ThroughputMeter(bucket_width=first["bucket_width"])
        buckets = meter._buckets
        for part in parts:
            for index, count in part["buckets"].items():
                buckets[index] = buckets.get(index, 0) + count
                meter.total += count
        achieved = meter.rate(first["window_start"], first["window_end"])
        # Stable sort on completion time alone: each replica's samples
        # live in exactly one worker, so same-time samples of one replica
        # (a settled batch confirms many payments at one instant) keep
        # their drain order under any shard count — reproducing the
        # serial engine's sample order.
        samples: List[Tuple[float, float]] = []
        for part in parts:
            samples.extend(part["samples"])
        samples.sort(key=lambda sample: sample[0])
        latency = summarize_values([value for _at, value in samples])
        injected = first["injected"]
        for part in parts[1:]:
            if part["injected"] != injected:
                raise RuntimeError(
                    "replicated drivers diverged: injected counts "
                    f"{[p['injected'] for p in parts]}"
                )
        return RunResult(
            offered=rate,
            achieved=achieved,
            latency=latency,
            injected=injected,
            confirmed=sum(part["confirmed"] for part in parts),
            duration=duration,
        )

    def fingerprint(self) -> Dict[str, Any]:
        """Merged per-replica state fingerprints and settled counts."""
        for connection in self._connections:
            connection.send(("fingerprint",))
        prints: Dict[int, str] = {}
        settled: Dict[int, int] = {}
        for message in self._collect():
            _kind, part_prints, part_settled = message
            prints.update(part_prints)
            settled.update(part_settled)
        return {
            "state": dict(sorted(prints.items())),
            "settled": dict(sorted(settled.items())),
        }

    def close(self) -> None:
        for connection in self._connections:
            try:
                connection.send(("exit",))
            except OSError:
                pass
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5)
        for connection in self._connections:
            connection.close()
        self._connections = []
        self._processes = []

    def __enter__(self) -> "ShardedOpenLoop":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

"""In-process live cluster and load generator for the ``live_*`` workloads.

The N replicas' :class:`~repro.transport.tcp.TcpTransport`s, their
``build_replica`` protocol objects *and* the load generator share one
asyncio loop in one process and talk over loopback TCP sockets (the
``tests/transport/test_cluster.py`` pattern).  On a 2-core host the
5-process ``repro.transport.cluster`` CLI measures the OS scheduler;
in-process the same framing / HMAC / socket / BRB / settle code runs and
process CPU per payment is attributable to it.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import resource
import statistics
import tempfile
import time
from array import array
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.messages import ClientConfirm, ClientSubmit
from repro.core.payment import Payment
from repro.core.persistence import ReplicaStore, state_fingerprint
from repro.transport.cluster import _build_directory, build_replica
from repro.transport.tcp import TcpTransport

from .host import HostMeter
from .stats import percentile

__all__ = [
    "Cluster", "LiveSpec", "LoadGen", "Mark", "host_and_reference_seconds",
    "run_live", "topup_payments",
]

SECRET = b"perfbench-in-process"

#: Open-loop pacing floor: the generator sleeps at least this long, so
#: it wakes ~500 times/s instead of once per payment and its own loop
#: overhead stays out of ``cpu_us_per_payment``.  Lateness it causes is
#: measured (``loadgen.late_ms_p99``) and included in every latency,
#: which is timed from the payment's *due* time.
TICK = 0.002

#: Sampling period of the marks; a measured window starts and ends on one.
MARK_PERIOD = 0.25

#: Kernel rounds timed at every mark of the closed loop (≈ 2 ms of
#: every 250) and before every set-up (≈ 11 ms beside ≈ 10 ms).
MARK_KERNEL_ROUNDS = 20_000
SETUP_KERNEL_ROUNDS = 100_000

#: Seconds the epilogue waits for stragglers before counting failures.
DRAIN_DEADLINE = 10.0

clock = time.perf_counter


class Mark(NamedTuple):
    """One sample of run progress."""

    time: float
    #: Process CPU seconds so far.
    cpu: float
    confirmed: int
    #: Host slowness factor read by a kernel run just before the mark
    #: (:mod:`perfbench.host`); 1.0 where the host's speed is not read.
    factor: float = 1.0
    #: What that kernel run itself took; never counted as work.
    kernel_s: float = 0.0


def host_and_reference_seconds(marks: Sequence[Mark]) -> Tuple[float, float]:
    """Seconds from the first mark to the last: on the host's clock, and
    in reference seconds (each interval divided by the mean of the
    factors read at its two ends).  The marks' own kernel runs are left
    out of both."""
    host = reference = 0.0
    for before, after in zip(marks, marks[1:]):
        seconds = after.time - before.time - after.kernel_s
        host += seconds
        reference += seconds / ((before.factor + after.factor) / 2)
    return host, reference


class Cluster:
    """``n`` live astro2 replicas plus a load-generator transport."""

    def __init__(
        self,
        n: int,
        genesis: Dict[str, int],
        seed: int,
        wal_dir: Optional[str] = None,
    ) -> None:
        self.n = n
        self.genesis = genesis
        self.seed = seed
        self.wal_dir = wal_dir
        self.transports: List[TcpTransport] = []
        self.replicas: List[Any] = []
        self.stores: List[ReplicaStore] = []
        self.loadgen_transport: Optional[TcpTransport] = None
        self.rep_map = _build_directory(n, list(genesis)).rep_map

    async def start(self) -> None:
        """Build replicas (+WAL), bind sockets, finish every handshake."""
        n = self.n
        for node_id in range(n):
            transport = TcpTransport(node_id, SECRET)
            replica = build_replica(
                "astro2", n, transport, self.genesis, seed=self.seed,
                loadgen_node=n, resend_acks=self.wal_dir is not None,
            )
            if self.wal_dir is not None:
                # Default snapshot/fingerprint intervals; bound before
                # the transport starts, like the cluster CLI's children.
                store = ReplicaStore(self.wal_dir, node_id)
                replica.bind_persistence(store)
                self.stores.append(store)
            await transport.start()
            self.transports.append(transport)
            self.replicas.append(replica)
        self.loadgen_transport = TcpTransport(n, SECRET)
        await self.loadgen_transport.start()
        everyone = [*self.transports, self.loadgen_transport]
        peers = {t.node_id: ("127.0.0.1", t.port) for t in everyone}
        for transport in everyone:
            transport.connect(peers)
        deadline = clock() + 20.0
        while any(t.stats.connects < n for t in everyone):
            if clock() > deadline:
                raise RuntimeError("live cluster: handshakes did not finish")
            await asyncio.sleep(0.001)

    async def close(self) -> None:
        if self.loadgen_transport is not None:
            await self.loadgen_transport.close()
        for transport in self.transports:
            await transport.close()
        for store in self.stores:
            store.close()

    def check(self, confirmed: int) -> List[str]:
        """The live correctness gate; returns the violations found."""
        problems: List[str] = []
        fingerprints = {state_fingerprint(r.state) for r in self.replicas}
        if len(fingerprints) != 1:
            problems.append(f"{len(fingerprints)} distinct state fingerprints")
        for replica in self.replicas:
            if replica.settled_count != confirmed:
                problems.append(
                    f"replica {replica.node_id} settled "
                    f"{replica.settled_count}, loadgen confirmed {confirmed}"
                )
            if replica.rejected:
                problems.append(
                    f"replica {replica.node_id} rejected "
                    f"{len(replica.rejected)} payments"
                )
        for transport in [*self.transports, self.loadgen_transport]:
            stats = transport.stats
            if stats.queue_dropped or stats.handler_errors or stats.stream_errors:
                problems.append(
                    f"transport {transport.node_id}: queue_dropped="
                    f"{stats.queue_dropped} handler_errors="
                    f"{stats.handler_errors} stream_errors={stats.stream_errors}"
                )
        return problems


class LoadGen:
    """Client population over one transport: open loop, closed loop, drain.

    Every payment is timed from its *due* time (open loop: its slot in
    the schedule; closed loop: the instant its window slot freed up) to
    the arrival of its :class:`ClientConfirm` here.
    """

    def __init__(self, cluster: Cluster, workload: Any) -> None:
        self.transport = cluster.loadgen_transport
        self.rep_map = cluster.rep_map
        self.workload = workload
        self._next_seq: Dict[str, int] = {}
        #: identifier -> due time of every unconfirmed payment.
        self.pending: Dict[tuple, float] = {}
        self.submitted = 0
        self.confirmed = 0
        self.duplicate_confirms = 0
        #: Dependency certificates carried by the confirmed payments.
        self.deps_confirmed = 0
        self.due = array("d")
        self.done = array("d")
        #: Spenders whose payments stay out of ``due``/``done`` (merchant
        #: payouts: their latency is the wait for income, see README).
        self.untimed: frozenset = frozenset()
        self.untimed_latency = array("d")
        #: Open-loop send time minus due time, one entry per payment.
        self.late = array("d")
        #: Closed-loop window: confirms refill up to this many outstanding
        #: while the phase still has payments left to submit.
        self.window = 0
        self.closed_left = 0
        self.max_outstanding = 0
        self.marks: List[Mark] = []
        #: Set for the closed loop: every mark then reads the host's speed.
        self.meter: Optional[HostMeter] = None
        self._sampler: Optional["asyncio.Future[None]"] = None
        self.transport.on(ClientConfirm, self.on_confirm)

    # -- submitting ----------------------------------------------------
    def make_payment(self, spender: str, beneficiary: str, amount: int) -> Payment:
        seq = self._next_seq.get(spender, 0) + 1
        self._next_seq[spender] = seq
        return Payment(spender, seq, beneficiary, amount)

    def next_payment(self) -> Payment:
        return self.make_payment(*self.workload.next())

    def submit(self, payment: Payment, due: float) -> None:
        self.pending[payment.identifier] = due
        self.submitted += 1
        if len(self.pending) > self.max_outstanding:
            self.max_outstanding = len(self.pending)
        self.transport.send(
            self.rep_map[payment.spender], ClientSubmit(payment)
        )

    def on_confirm(self, src: int, message: ClientConfirm) -> None:
        now = clock()
        due = self.pending.pop(message.payment.identifier, None)
        if due is None:
            self.duplicate_confirms += 1
            return
        self.confirmed += 1
        self.deps_confirmed += len(message.payment.deps)
        if message.payment.spender in self.untimed:
            self.untimed_latency.append(now - due)
        else:
            self.due.append(due)
            self.done.append(now)
        while self.closed_left and len(self.pending) < self.window:
            self.closed_left -= 1
            self.submit(self.next_payment(), now)

    # -- phases --------------------------------------------------------
    async def open_loop(self, rate: float, seconds: float) -> Tuple[float, float]:
        """Submit ``rate`` payments/s for ``seconds``; returns the span."""
        interval = 1.0 / rate
        total = int(rate * seconds)
        start = clock()
        sent = 0
        while sent < total:
            now = clock()
            due = start + sent * interval
            if due > now:
                await asyncio.sleep(max(due - now, TICK))
                continue
            self.late.append(now - due)
            self.submit(self.next_payment(), due)
            sent += 1
        return start, start + total * interval

    async def closed_loop(
        self, window: int, total: int, timeout: float
    ) -> Tuple[float, float]:
        """Submit ``total`` payments keeping ``window`` outstanding.

        Returns the span from the first submission to the last; the
        window then drains (:meth:`drain`).
        """
        start = clock()
        self.window = window
        self.closed_left = total
        while self.closed_left and len(self.pending) < window:
            self.closed_left -= 1
            self.submit(self.next_payment(), start)
        while self.closed_left and clock() < start + timeout:
            await asyncio.sleep(0.01)
        self.window = self.closed_left = 0
        return start, clock()

    async def drain(self, timeout: float = DRAIN_DEADLINE) -> bool:
        deadline = clock() + timeout
        while self.pending and clock() < deadline:
            await asyncio.sleep(0.02)
        return not self.pending

    def mark(self) -> None:
        reading: Tuple[float, ...] = ()
        if self.meter is not None:
            reading = (self.meter.sample(), self.meter.samples[-1])
        self.marks.append(
            Mark(clock(), time.process_time(), self.confirmed, *reading)
        )

    async def _sample_marks(self) -> None:
        while True:
            self.mark()
            await asyncio.sleep(MARK_PERIOD)

    def start_sampling(self) -> None:
        """Append a :data:`Mark` every ``MARK_PERIOD`` until stopped."""
        self._sampler = asyncio.ensure_future(self._sample_marks())

    async def stop_sampling(self) -> None:
        self._sampler.cancel()
        await asyncio.gather(self._sampler, return_exceptions=True)

    # -- reading the samples -------------------------------------------
    def latencies_due_in(self, start: float, end: float) -> List[float]:
        """Seconds from due to confirm, for payments due in the window."""
        return [
            done - due
            for due, done in zip(self.due, self.done)
            if start <= due < end
        ]


# ----------------------------------------------------------------------
# One run of a live workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LiveSpec:
    """Shape of one live workload (sizes are part of its name's meaning)."""

    merchant: bool
    #: Open-loop offered rate, payments/s.
    rate: float
    #: Share of ``--seconds`` spent in the open loop; the rest, if any,
    #: is the closed loop.
    open_share: float
    #: Closed-loop outstanding payments (0: no closed loop).
    window: int
    #: Closed-loop payments per second of ``--seconds``: fixed work, so
    #: memory and counts compare between commits of different speed.
    closed_per_second: int
    #: Seconds per latency slice: long enough that a slice's p95 has ten
    #: samples beyond it (200 timed payments).
    lat_slice: float


#: Accounts (not the cluster CLI's 4·N, so state-size costs show) and
#: replicas (f = 1) of both live workloads.
ACCOUNTS = 1024
REPLICAS = 4

#: Seconds of the open loop before its measured window starts.
OPEN_WARMUP = 2.0

#: Set-ups per run, median reported (the driver's contract asks for
#: several; a single ~10 ms reading moves ±30 % with the host).  The last
#: cluster is the one measured.
SETUP_REPS = 15

#: Purchase that releases every payout a merchant's representative
#: still holds when the open loop ends (covers > 4000 held payouts).
TOPUP_AMOUNT = 1_000_000

#: A traced run spends this share of its seconds in an *untraced*
#: reference cluster, so the tracing overhead is a same-run ratio.
REFERENCE_SHARE = 0.35


@contextlib.contextmanager
def old_generation_paused() -> Iterator[None]:
    """Collect now, then keep full (oldest-generation) collections off.

    Used around the open loop only, for its latencies.  All N replicas
    and the load generator share this process's heap, and every replica
    keeps every settled payment, so a full collection walks five nodes'
    objects and stalls all five at once (40–100 ms, four or five times
    in the window).  That put p95 on the edge of the stalled payments:
    64 ms or 91 ms, run by run.  Separate processes would each pause a
    fifth as long and not in step, so the stall is the harness's, not
    the cluster's.  The young generations keep running, so cyclic
    garbage a change starts to create is still collected and paid for.
    The closed loop runs with the collector untouched — the CPU it
    takes is real, and ``pps`` pays it — and what one full collection
    costs at the end of the open loop is ``runtime.gc_full_ms``.
    """
    gc.collect()
    young, middle, old = gc.get_threshold()
    gc.set_threshold(young, middle, 1 << 30)
    try:
        yield
    finally:
        gc.set_threshold(young, middle, old)


def _population(spec: LiveSpec, seed: int) -> Tuple[Dict[str, int], Any]:
    from repro.workloads import (
        MerchantWorkload,
        UniformWorkload,
        merchant_genesis,
        uniform_genesis,
    )

    if spec.merchant:
        genesis = merchant_genesis(ACCOUNTS)
        clients = sorted(genesis, key=repr)
        # Payouts average 150 against 4 purchases of ~50 per payout:
        # inflow >= outflow, so held payouts do not pile up over time.
        return genesis, MerchantWorkload(
            clients, seed=seed, payout_min=50, payout_max=250
        )
    genesis = uniform_genesis(ACCOUNTS)
    return genesis, UniformWorkload(sorted(genesis, key=repr), seed=seed)


async def _start_cluster(
    spec: LiveSpec, genesis: Dict[str, int], seed: int, scratch: str, reps: int
) -> Tuple[Cluster, List[float], List[float]]:
    """Set up ``reps`` times; keep the last cluster.  Returns it, every
    set-up's host seconds and the host factor read just before each."""
    meter = HostMeter(SETUP_KERNEL_ROUNDS)
    timings: List[float] = []
    factors: List[float] = []
    for rep in range(reps):
        wal_dir = None
        if spec.merchant:
            wal_dir = tempfile.mkdtemp(prefix="wal-", dir=scratch)
        factors.append(meter.sample())
        began = clock()
        cluster = Cluster(REPLICAS, genesis, seed, wal_dir)
        await cluster.start()
        timings.append(clock() - began)
        if rep < reps - 1:
            await cluster.close()
    return cluster, timings, factors


def topup_payments(loadgen: LoadGen) -> List[Payment]:
    """One large purchase per merchant, from consumers in turn."""
    consumers, merchants = loadgen.workload.consumers, loadgen.workload.merchants
    return [
        loadgen.make_payment(
            consumers[index % len(consumers)], merchant, TOPUP_AMOUNT
        )
        for index, merchant in enumerate(merchants)
    ]


def slice_percentiles(
    loadgen: LoadGen, start: float, end: float, width: float
) -> List[Tuple[float, float]]:
    """(p50, p95) of every full ``width``-second slice of the window."""
    out: List[Tuple[float, float]] = []
    while start + width <= end + 1e-9:
        latencies = loadgen.latencies_due_in(start, start + width)
        if latencies:
            out.append((percentile(latencies, 0.50), percentile(latencies, 0.95)))
        start += width
    return out


async def _open_phase(
    spec: LiveSpec, cluster: Cluster, workload: Any, seconds: float
) -> Tuple[LoadGen, Dict[str, Any]]:
    """Open loop (+ merchant top-up) and drain; returns window readings.

    The measured window runs from the first mark after the warm-up to
    the last mark before the schedule's end.
    """
    loadgen = LoadGen(cluster, workload)
    if spec.merchant:
        loadgen.untimed = frozenset(workload.merchants)
    loadgen.start_sampling()
    with old_generation_paused():
        began, ended = await loadgen.open_loop(spec.rate, seconds)
        if spec.merchant:
            now = clock()
            for payment in topup_payments(loadgen):
                loadgen.submit(payment, now)
        drained = await loadgen.drain()
    collect_began = clock()
    gc.collect()
    gc_full_s = clock() - collect_began
    warmup = min(OPEN_WARMUP, seconds / 4)
    inside = [m for m in loadgen.marks if began + warmup <= m.time <= ended]
    if len(inside) < 2:
        raise RuntimeError("open loop too short to hold a measured window")
    first, last = inside[0], inside[-1]
    width = min(spec.lat_slice, (last.time - first.time) / 2)
    sent_before_window = int((first.time - began) * spec.rate)
    reading = {
        "window": (first.time, last.time),
        "drained": drained,
        "confirmed": last.confirmed - first.confirmed,
        "cpu_s": last.cpu - first.cpu,
        "latencies": loadgen.latencies_due_in(first.time, last.time),
        "lat_slices": slice_percentiles(loadgen, first.time, last.time, width),
        "gc_full_s": gc_full_s,
        "late_p99_s": percentile(loadgen.late[sent_before_window:], 0.99),
    }
    return loadgen, reading


async def run_live(
    spec: LiveSpec, seed: int, seconds: float, tracer: Optional[Any], scratch: str
) -> Dict[str, Any]:
    """One run; returns measured values, failure counts and problems."""
    genesis, workload = _population(spec, seed)
    open_seconds = seconds * spec.open_share
    closed_total = int(spec.closed_per_second * seconds)
    values: Dict[str, float] = {}
    info: Dict[str, Any] = {}
    problems: List[str] = []
    reference: Optional[Dict[str, Any]] = None

    if tracer is not None:
        # Untraced reference first: same workload draws, own cluster.
        from . import layers, trace

        ref_seconds = seconds * REFERENCE_SHARE
        open_seconds, closed_total = seconds - ref_seconds, 0
        cluster, _, _ = await _start_cluster(spec, genesis, seed, scratch, 1)
        _, ref_workload = _population(spec, seed)
        ref_loadgen, reference = await _open_phase(
            spec, cluster, ref_workload, ref_seconds
        )
        await ref_loadgen.stop_sampling()
        await cluster.close()
        trace.install(tracer)

    cluster, setup_times, setup_factors = await _start_cluster(
        spec, genesis, seed, scratch, SETUP_REPS
    )
    values["setup_s"] = statistics.median(
        t / f for t, f in zip(setup_times, setup_factors)
    )
    info["setup_s_raw"] = statistics.median(setup_times)
    info["setup_first_s"] = setup_times[0]
    loadgen, reading = await _open_phase(spec, cluster, workload, open_seconds)

    # Latency percentiles are taken per slice and the median slice is
    # reported: one host stall of half a second is 5 % of a ten-second
    # window and moved a pooled p95 from 60 to 160-480 ms in one run of
    # fifteen.  The pooled values are printed beside them.
    latencies = reading["latencies"]
    window_start, window_end = reading["window"]
    values["lat_p50_ms"] = statistics.median(s[0] for s in reading["lat_slices"]) * 1e3
    values["lat_p95_ms"] = statistics.median(s[1] for s in reading["lat_slices"]) * 1e3
    values["cpu_us_per_payment"] = reading["cpu_s"] / reading["confirmed"] * 1e6
    # Goodput at the offered rate; the closed loop, where there is one,
    # replaces it with the saturated rate.
    values["pps"] = reading["confirmed"] / (window_end - window_start)
    info["lat_samples"] = len(latencies)
    info["lat_slices"] = len(reading["lat_slices"])
    info["lat_p50_ms_pooled"] = percentile(latencies, 0.50) * 1e3
    info["lat_p95_ms_pooled"] = percentile(latencies, 0.95) * 1e3
    info["lat_p99_ms_pooled"] = percentile(latencies, 0.99) * 1e3
    info["late_ms_p99"] = reading["late_p99_s"] * 1e3
    info["gc_full_ms"] = reading["gc_full_s"] * 1e3
    info["open_loop_confirmed"] = reading["confirmed"]

    drained = reading["drained"]
    if closed_total and drained:
        already = loadgen.submitted
        # The saturated phase is CPU-bound, so it is timed in reference
        # seconds (perfbench.host): first submission until the window
        # has drained, every quarter second divided by the host factor
        # read beside it.
        loadgen.meter = HostMeter(MARK_KERNEL_ROUNDS)
        first_mark = len(loadgen.marks)
        loadgen.mark()
        await loadgen.closed_loop(spec.window, closed_total, timeout=3 * seconds)
        drained = await loadgen.drain()
        loadgen.mark()
        host_s, reference_s = host_and_reference_seconds(loadgen.marks[first_mark:])
        values["pps"] = closed_total / reference_s
        info["pps_raw"] = closed_total / host_s
        info["host_factor"] = loadgen.meter.mean_factor()
        info["max_outstanding"] = loadgen.max_outstanding
        if loadgen.submitted - already != closed_total:
            problems.append(
                f"closed loop submitted {loadgen.submitted - already} of "
                f"{closed_total} payments before its timeout"
            )
        if loadgen.max_outstanding > spec.window:
            problems.append(
                f"closed loop had {loadgen.max_outstanding} outstanding"
            )

    await loadgen.stop_sampling()
    # Let trailing CREDIT frames land before reading the counters.
    await asyncio.sleep(0.2)
    rejected = max(len(replica.rejected) for replica in cluster.replicas)
    failed = len(loadgen.pending) + rejected
    if not drained:
        problems.append(f"{len(loadgen.pending)} payments unconfirmed at deadline")
    problems.extend(cluster.check(loadgen.confirmed))
    if tracer is not None:
        layers.live_layer_values(
            tracer, cluster, loadgen, reading, reference, values, info, problems
        )
    await cluster.close()
    if tracer is not None:
        layers.check_wal_records(tracer, cluster, problems)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return {
        "values": values,
        "info": info,
        "attempted": loadgen.submitted,
        "failed": failed,
        "problems": problems,
    }

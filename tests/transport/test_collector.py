"""The live loop's collector policy (see ``repro.transport.collector``).

Every started ``TcpTransport`` holds a pacer that keeps full collections
to 1/20 of wall time.  That is only worth doing — and only harmless —
while the payment path allocates no reference cycles, so that premise is
pinned here for both systems and both payment shapes, beside the bound,
the proof that nothing is frozen for ever, the good-neighbour rule and
who owns the hold.  ``conftest.py`` checks after every transport test
that no hold outlived it.
"""

from __future__ import annotations

import asyncio
import gc
import time
import weakref

import pytest

from repro.transport import collector
from repro.transport.cluster import LoopContext, _recv
from repro.transport.live import _LoadGen, default_genesis
from repro.transport.tcp import TcpTransport
from repro.workloads.base import make_workload

SECRET = b"collector-policy"

#: ``threshold2`` a harness sets to pause the old generation
#: (``perfbench.live.old_generation_paused``).
PAUSED = 1 << 30


# ---------------------------------------------------------------------------
# The premise: the live payment path allocates no reference cycles
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "system, workload_name",
    [("astro2", "uniform"), ("astro2", "merchant"), ("astro1", "uniform")],
)
def test_payment_path_allocates_no_cycles(
    system, workload_name, boot_hosts, monkeypatch
):
    """2,000 payments over sockets with the collector off, then a full
    collection finds nothing.  Merchant payouts are credit-funded:
    CREDITs and certificates cross the wire.  A path that starts leaking
    cycles fails here and is fixed by breaking the cycle at its source."""
    monkeypatch.setenv("REPRO_WORKLOAD", workload_name)

    async def scenario():
        n = 4
        genesis = default_genesis(n)
        hosts, parent, _peer_map = await boot_hosts(system, n, n)
        workload = make_workload(
            workload_name, sorted(genesis, key=repr), seed=0
        )
        loadgen = _LoadGen(parent, n, genesis, workload)
        try:
            # Connections up, first batches through: boot is not judged.
            await loadgen.run(200.0, 0.2)
            await loadgen.drain(10.0, 1.0)
            gc.collect()
            gc.disable()
            try:
                await loadgen.run(2000.0, 1.0)
                await loadgen.drain(20.0, 1.0)
                return loadgen.confirmed, gc.collect()
            finally:
                gc.enable()
        finally:
            await parent.close()
            for host in hosts:
                await host.close()

    confirmed, unreachable = asyncio.run(scenario())
    # Unfunded merchant payouts stay held (28 of the first 2,000).
    assert confirmed >= 2000
    assert unreachable == 0


# ---------------------------------------------------------------------------
# The mechanism, driven by allocation alone
# ---------------------------------------------------------------------------
class _FullCollections:
    """A ``gc.callbacks`` probe: ``(start, stop, threshold2 at stop)`` of
    every generation-2 collection while installed."""

    def __init__(self) -> None:
        self.seen = []
        self._start = 0.0

    def __call__(self, phase, info) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seen.append(
                (self._start, time.perf_counter(), gc.get_threshold()[2])
            )

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self)


@pytest.fixture
def held():
    """A hold on the pacer, as a started transport takes; given back."""
    gc.collect()
    collector.hold()
    try:
        yield
    finally:
        collector.release()


def _grow(retained: list, until, deadline: float = 20.0) -> float:
    """Grow a retained, gc-tracked heap (≈ 1 M objects/s) until
    ``until()`` says so; returns the seconds it took."""
    began = time.perf_counter()
    while not until():
        retained.extend([index] for index in range(500))
        time.sleep(0.0005)
        assert time.perf_counter() - began < deadline, "no progress"
    return time.perf_counter() - began


def test_full_collections_are_paced_and_keep_happening(held):
    before = collector.reading()
    began = time.perf_counter()

    def paced() -> int:
        now = collector.reading()["full_collections"]
        return now - before["full_collections"]

    with _FullCollections() as probe:
        elapsed = _grow(
            [], lambda: paced() >= 2 and time.perf_counter() - began >= 1.0
        )
    after = collector.reading()
    assert len(probe.seen) == paced()
    full_seconds = after["full_seconds"] - before["full_seconds"]
    longest = max(stop - start for start, stop, _ in probe.seen)
    bound = elapsed * collector.FULL_COLLECTION_SHARE + longest
    assert 0.0 < full_seconds <= bound
    # Automatic full collections were off for most of the run.
    assert after["held_off_seconds"] - before["held_off_seconds"] > elapsed / 2
    assert gc.get_freeze_count() == 0


def test_a_cycle_in_the_old_generation_is_still_reclaimed(held):
    """Nothing is frozen or suppressed for ever: a cycle promoted to the
    oldest generation during a hold-off dies once the interval is over
    and the heap has grown."""

    class Node:
        pass

    node = Node()
    node.itself = node
    gone = weakref.ref(node)
    gc.collect()  # timed: automatic full collections are now held off
    assert gc.get_threshold()[2] == collector._MARK
    gc.collect(0)
    gc.collect(1)  # the cycle is in the oldest generation
    del node
    assert gone() is not None
    _grow([], lambda: gone() is None)
    assert gc.get_freeze_count() == 0


def test_a_threshold_somebody_else_set_is_left_alone(held):
    """``perfbench.live.old_generation_paused``, replayed: collect, read
    the thresholds (the pacer's mark is in them), set ``1 << 30``, run
    past the pacing interval, put back what was read."""
    own = gc.get_threshold()
    retained: list = []
    with _FullCollections() as probe:
        gc.collect()
        read = gc.get_threshold()
        assert read[2] == collector._MARK
        gc.set_threshold(read[0], read[1], PAUSED)
        # Young collections run past the end of the hold-off...
        interval_over = collector._until + 0.05
        _grow(retained, lambda: time.perf_counter() > interval_over)
        _grow(retained, lambda: len(retained) > 400_000)
        # ...and the pause stands: not lowered, no full collection in it.
        assert gc.get_threshold() == (read[0], read[1], PAUSED)
        assert len(probe.seen) == 1
        gc.set_threshold(*read)
        # The mark is the pacer's again: the next young collection hands
        # the displaced threshold back, and pacing resumes.
        _grow(retained, lambda: gc.get_threshold() == own)
        _grow(retained, lambda: len(probe.seen) > 1)
    assert probe.seen[-1][2] == collector._MARK


# ---------------------------------------------------------------------------
# Ownership: one hold per started transport, one callback per process
# ---------------------------------------------------------------------------
def _installed() -> int:
    return gc.callbacks.count(collector._on_collection)


@pytest.mark.parametrize("order", [(0, 1, 2, 3, 4), (4, 2, 0, 3, 1)])
def test_five_transports_share_one_callback(order):
    async def scenario():
        thresholds = gc.get_threshold()
        transports = [TcpTransport(node_id, SECRET) for node_id in range(5)]
        assert _installed() == 0  # built is not started
        for transport in transports:
            await transport.start()
            assert _installed() == 1
        assert collector._holds == 5
        for index in order:
            assert _installed() == 1
            await transports[index].close()
        assert _installed() == 0 and collector._holds == 0
        assert gc.get_threshold() == thresholds
        await transports[0].close()  # twice: releases once
        assert collector._holds == 0

    asyncio.run(scenario())


def test_a_transport_that_never_bound_holds_nothing():
    async def scenario():
        first = TcpTransport(0, SECRET)
        port = await first.start()
        second = TcpTransport(1, SECRET)
        with pytest.raises(OSError):
            await second.start(port)
        assert collector._holds == 1
        await second.close()  # never started: nothing to give back
        assert collector._holds == 1
        await first.close()
        assert collector._holds == 0

    asyncio.run(scenario())


def test_a_handler_exception_does_not_cost_the_hold():
    async def scenario():
        transport = TcpTransport(0, SECRET)
        await transport.start()

        def boom(src, message):
            raise ValueError("handler failed")

        transport.on(str, boom)
        transport.send(0, "loopback")
        await asyncio.sleep(0.05)
        assert transport.stats.handler_errors == 1
        assert collector._holds == 1 and _installed() == 1
        await transport.close()
        assert collector._holds == 0

    asyncio.run(scenario())


def test_a_cancelled_replica_task_gives_its_hold_back():
    """The in-loop placement's SIGKILL is a cancellation: the ``finally``
    that closes the host releases what its transport held."""

    async def scenario():
        context = LoopContext()
        ours, theirs = context.Pipe()
        arguments = (2, theirs, 0, "astro2", 4, SECRET, 0, None, "uniform")
        task = context.Process(target=None, args=arguments, daemon=True)
        task.start()
        assert (await _recv(ours))[0] == "port"  # bound: the hold is taken
        assert collector._holds == 1
        task.kill()
        while task.exitcode is None:
            await asyncio.sleep(0.01)
        assert collector._holds == 0 and _installed() == 0

    asyncio.run(scenario())

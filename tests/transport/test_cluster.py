"""Live-cluster assembly and in-process end-to-end settlement.

The pieces that make the live cluster correct — deterministic
cross-process assembly, the control channel, the open loop's pacing, and
the same protocol objects reaching settlement over real TCP sockets —
with every :class:`~repro.transport.live.ReplicaHost` on the test's own
event loop (``conftest.boot_hosts``) so the tests stay fast and
debuggable.  The orchestrator and both placements are
``test_orchestrate.py``'s; the multi-process CLI itself runs in the CI
``live-smoke`` job.
"""

from __future__ import annotations

import argparse
import asyncio
import inspect
import os
import time
from typing import Any, Dict, List

import pytest

from repro.core.messages import ClientConfirm, ClientSubmit
from repro.core.payment import Payment
from repro.crypto.signatures import sign
from repro.transport import cluster as cluster_module
from repro.transport.cluster import _ClusterProcs, _replica_async, run_cluster
from repro.transport.live import (
    ControlQuery,
    ControlReply,
    _build_directory,
    _LoadGen,
    build_replica,
    default_genesis,
)
from repro.transport.tcp import TcpTransport
from repro.workloads.base import make_workload

SECRET = b"in-process-cluster"


# ---------------------------------------------------------------------------
# Deterministic assembly
# ---------------------------------------------------------------------------
def test_build_replica_is_deterministic_across_processes():
    """Two builds of the same node id produce identical key material and
    client registration (the cross-process consistency requirement)."""
    n = 4
    genesis = default_genesis(n)

    def build(node_id: int):
        return build_replica(
            "astro2",
            n,
            TcpTransport(node_id, SECRET),
            genesis,
            seed=3,
            loadgen_node=n,
        )

    first, second = build(2), build(2)
    assert sign(first.key, ("probe",)) == sign(second.key, ("probe",))
    assert first.client_nodes == second.client_nodes
    # Clients of other replicas are not re-homed to the loadgen.
    other = build_replica(
        "astro1", n, TcpTransport(0, SECRET), genesis, loadgen_node=n
    )
    rep_map = _build_directory(n, list(genesis)).rep_map
    for client, node in other.client_nodes.items():
        assert node == n and rep_map[client] == 0


def test_build_replica_rejects_unknown_system():
    with pytest.raises(ValueError):
        build_replica("astro9", 4, TcpTransport(0, SECRET), default_genesis(4))


# ---------------------------------------------------------------------------
# What perfbench/ imports from the cluster module
# ---------------------------------------------------------------------------
def test_perfbench_import_surface_is_pinned():
    """``perfbench/live.py`` does ``from repro.transport.cluster import
    _build_directory, build_replica`` and passes ``seed=``,
    ``loadgen_node=`` and ``resend_acks=``: a rename must fail here, not
    only in the CI step that runs the benchmark's own tests."""
    assert cluster_module._build_directory is _build_directory
    assert cluster_module.build_replica is build_replica
    parameters = inspect.signature(build_replica).parameters
    assert list(parameters)[:4] == ["system", "n", "transport", "genesis"]
    assert {"seed", "loadgen_node", "resend_acks"} <= set(parameters)
    assert list(inspect.signature(_build_directory).parameters) == [
        "n", "clients",
    ]


# ---------------------------------------------------------------------------
# In-process end-to-end settlement over real sockets
# ---------------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("system", ["astro1", "astro2"])
def test_in_process_cluster_settles_payments(system, boot_hosts):
    async def scenario():
        n = 4
        genesis = default_genesis(n)
        loop = asyncio.get_running_loop()
        hosts, loadgen, _peer_map = await boot_hosts(system, n, serving=n)

        confirms: List[Payment] = []
        loadgen.on(
            ClientConfirm, lambda src, msg: confirms.append(msg.payment)
        )
        stats: Dict[int, Dict[str, int]] = {}
        loadgen.on(
            ControlReply,
            lambda src, msg: stats.__setitem__(msg.node_id, msg.body),
        )

        rep_map = _build_directory(n, list(genesis)).rep_map
        clients = sorted(genesis, key=repr)
        num_payments = 40
        for index in range(num_payments):
            spender = clients[index % len(clients)]
            beneficiary = clients[(index + 1) % len(clients)]
            seq = index // len(clients) + 1
            payment = Payment(spender, seq, beneficiary, 1)
            loadgen.send(rep_map[spender], ClientSubmit(payment))

        deadline = loop.time() + 20.0
        while len(confirms) < num_payments:
            if loop.time() > deadline:
                pytest.fail(
                    f"only {len(confirms)}/{num_payments} confirmed in time"
                )
            await asyncio.sleep(0.05)

        # Every replica settled the full batch set, none rejected.
        for node_id in range(n):
            loadgen.send(node_id, ControlQuery(1, "stats"))
        deadline = loop.time() + 5.0
        while len(stats) < n and loop.time() < deadline:
            await asyncio.sleep(0.02)
        assert sorted(stats) == list(range(n))
        for body in stats.values():
            assert body == dict(_IDLE_STATS, settled=num_payments)

        await loadgen.close()
        for host in hosts:
            await host.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Control channel: one query/reply pair, collected with a deadline
# ---------------------------------------------------------------------------
#: The ``"stats"`` reading of a replica nothing was submitted to: its
#: payment counters, and its transport's error counters.
_IDLE_STATS = {
    "settled": 0, "rejected": 0, "held": 0, "queued": 0,
    "handler_errors": 0, "first_handler_error": None,
    "first_handler_traceback": None, "stream_errors": 0, "queue_dropped": 0,
}


def _control_scenario(boot_hosts, serving: int, body) -> None:
    """Run ``body(loadgen, hosts)`` against a load generator expecting 2
    replicas, ``serving`` of which exist and have settled nothing yet."""

    async def scenario():
        n = 2
        genesis = default_genesis(n)
        hosts, parent, _peer_map = await boot_hosts("astro2", n, serving)
        workload = make_workload("uniform", sorted(genesis, key=repr), seed=0)
        try:
            await body(_LoadGen(parent, n, genesis, workload), hosts)
        finally:
            await parent.close()
            for host in hosts:
                await host.close()

    asyncio.run(scenario())


def test_collect_gathers_both_readings_from_every_replica(boot_hosts):
    async def body(loadgen, hosts):
        stats = await loadgen.collect("stats")
        assert stats == {
            0: _IDLE_STATS,
            1: _IDLE_STATS,
        }
        state = await loadgen.collect("state")
        assert sorted(state) == [0, 1]
        assert state[0]["fingerprint"] == state[1]["fingerprint"]
        assert state[0]["balances"] == default_genesis(2)
        assert loadgen._waiters == {}

    _control_scenario(boot_hosts, 2, body)


def _refuse_the_reply(src, message):
    raise RuntimeError("a replica takes no replies")


def _refuse_the_reply_while_handling_a_key_error(src, message):
    try:
        {}["reply"]
    except KeyError:
        raise RuntimeError("a replica takes no replies")


@pytest.mark.parametrize(
    "handler", [_refuse_the_reply, _refuse_the_reply_while_handling_a_key_error]
)
def test_a_raising_handler_puts_its_traceback_in_the_stats_reading(
    boot_hosts, handler
):
    async def body(loadgen, hosts):
        hosts[1].transport.on(ControlReply, handler)
        hosts[0].transport.send(1, ControlReply(1, 1, {}))
        for _ in range(100):
            stats = await loadgen.collect("stats")
            if stats[1]["handler_errors"]:
                break
            await asyncio.sleep(0.01)
        reading = stats[1]
        assert reading["handler_errors"] == 1
        assert reading["first_handler_error"] == (
            "RuntimeError in the ControlReply handler: a replica takes no replies"
        )
        traceback = reading["first_handler_traceback"]
        assert traceback.startswith("Traceback (most recent call last):")
        assert f"in {handler.__name__}\n" in traceback
        assert traceback.endswith("RuntimeError: a replica takes no replies\n")
        # One exception's innermost frames: a chain is not printed.
        assert traceback.count("Traceback (most recent call last):") == 1
        assert "KeyError" not in traceback
        assert traceback.count('  File "') <= 4
        assert stats[0] == _IDLE_STATS

    _control_scenario(boot_hosts, 2, body)


def test_unknown_reading_is_ignored_and_collect_times_out_empty(boot_hosts):
    async def body(loadgen, hosts):
        loop = asyncio.get_running_loop()
        started = loop.time()
        assert await loadgen.collect("no-such-reading", timeout=0.3) == {}
        assert loop.time() - started >= 0.3
        # The replicas are unharmed: the next real query is answered.
        assert sorted(await loadgen.collect("stats")) == [0, 1]

    _control_scenario(boot_hosts, 2, body)


def test_collect_timeout_returns_the_partial_reply_set(boot_hosts):
    """A crashed replica simply does not answer (here: never existed)."""

    async def body(loadgen, hosts):
        replies = await loadgen.collect("stats", timeout=0.5)
        assert replies == {0: _IDLE_STATS}

    _control_scenario(boot_hosts, 1, body)


def test_reply_with_a_stale_tag_is_dropped(boot_hosts):
    async def body(loadgen, hosts):
        first = await loadgen.collect("stats", timeout=0.3)
        assert sorted(first) == [0]
        # Tag 1 has timed out; an answer to it arriving now (a slow
        # replica) must not leak into the next collection or linger.
        hosts[0].transport.send(2, ControlReply(1, 1, {"settled": 99}))
        second = await loadgen.collect("stats", timeout=0.5)
        assert second == {0: _IDLE_STATS}
        assert loadgen._waiters == {}

    _control_scenario(boot_hosts, 1, body)


def test_wire_reading_and_the_reports_bytes_per_payment(boot_hosts):
    """``"wire"`` is each process's own socket counters; the report sums
    them with the load generator's, per confirmed payment."""

    async def body(loadgen, hosts):
        await loadgen.run(rate=200, duration=0.2)
        assert await loadgen.drain(timeout=10.0, retry_interval=5.0)
        await asyncio.sleep(0.1)  # trailing CREDITs
        wire = await loadgen.collect("wire")
        assert sorted(wire) == [0, 1]
        for node_id, reading in wire.items():
            stats = hosts[node_id].transport.stats
            assert set(reading) == {"bytes_sent", "payloads_sent"}
            assert 0 < reading["bytes_sent"] <= stats.bytes_sent
            assert 0 < reading["payloads_sent"] <= stats.payloads_sent

        report = await cluster_module._wire_cost(loadgen)
        assert loadgen.confirmed == 40
        written = loadgen.transport.stats.bytes_sent + sum(
            host.transport.stats.bytes_sent for host in hosts
        )
        # The reading's own two queries were written after it read the
        # counters; nothing else is in flight.
        assert 0 < report["wire_bytes_per_payment"] <= written / 40
        assert report["wire_bytes_per_payment"] > 0.9 * written / 40
        # Per payment a submit and a confirm; per *batch*, between two
        # replicas, a PREPARE, an ACK, a COMMIT and a CREDIT.
        assert 2 <= report["wire_payloads_per_payment"] <= 7

    _control_scenario(boot_hosts, 2, body)


# ---------------------------------------------------------------------------
# Open loop: paced against the clock, not by counting wake-ups
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("rate", [300.0, 1700.0])
def test_open_loop_offers_the_nominal_rate_when_wakeups_are_late(
    rate, boot_hosts
):
    duration = 1.0

    async def scenario():
        n = 4
        genesis = default_genesis(n)
        # No replica exists: every submission is dropped at the socket
        # layer, which is all a pacing test needs.
        _hosts, parent, _peer_map = await boot_hosts("astro2", n, serving=0)
        workload = make_workload("uniform", sorted(genesis, key=repr), seed=0)
        loadgen = _LoadGen(parent, n, genesis, workload)
        loop = asyncio.get_running_loop()

        def busy() -> None:
            time.sleep(0.004)  # holds the loop: the next tick fires late
            loop.call_later(0.007, busy)

        busy()
        started = loop.time()
        await loadgen.run(rate, duration)
        elapsed = loop.time() - started
        await parent.close()
        return loadgen.submitted, elapsed

    submitted, elapsed = asyncio.run(scenario())
    assert submitted == round(rate * duration)
    assert duration - 0.001 <= elapsed < duration + 0.5


# ---------------------------------------------------------------------------
# run_cluster hands the workload to its children as an argument
# ---------------------------------------------------------------------------
class _RecordingContext:
    """Stands in for a multiprocessing context; starts nothing."""

    def __init__(self) -> None:
        self.process_args: List[tuple] = []

    def Pipe(self):
        return None, None

    def Process(self, target, args, daemon):
        assert target is cluster_module._replica_main
        self.process_args.append(args)
        return argparse.Namespace(start=lambda: None, exitcode=0)


def test_run_cluster_passes_workload_by_argument_not_environment(monkeypatch):
    monkeypatch.delenv("REPRO_WORKLOAD", raising=False)
    environment = dict(os.environ)
    context = _RecordingContext()
    seen: Dict[str, Any] = {}

    def spawn_all(self: _ClusterProcs) -> None:
        self.ctx = context
        for node_id in range(self.args.n):
            self.spawn(node_id)

    async def orchestrate(args, cluster, events):
        seen["workload"] = cluster.workload
        seen["events"] = events
        seen["wal_dir"] = cluster.wal_dir
        return {"stub": True}

    monkeypatch.setattr(_ClusterProcs, "spawn_all", spawn_all)
    monkeypatch.setattr(cluster_module, "_orchestrate", orchestrate)
    args = argparse.Namespace(
        n=4, system="astro2", seed=0, workload="merchant",
        secret="s", chaos=None, wal_dir=None,
    )
    assert run_cluster(args) == {"stub": True}
    assert dict(os.environ) == environment
    # Bench mode is the empty timeline; with nothing to kill, no WAL.
    assert seen == {"workload": "merchant", "events": [], "wal_dir": None}
    # Every child is told the name: the entry point forwards its
    # arguments verbatim to _replica_async.
    parameters = list(inspect.signature(_replica_async).parameters)
    assert len(context.process_args) == 4
    for node_id, process_args in enumerate(context.process_args):
        bound = dict(zip(parameters, process_args, strict=True))
        assert bound["workload"] == "merchant"
        assert bound["node_id"] == node_id
        assert default_genesis(4, bound["workload"]) != default_genesis(4)


@pytest.mark.parametrize(
    "chaos,wants_wal",
    [("delay:1x0.05@1;heal@2", False), ("crash:1@1;recover:1@2", True)],
)
def test_only_a_timeline_that_crashes_a_replica_gets_a_wal_dir(
    chaos, wants_wal, monkeypatch, tmp_path
):
    """What is killed must have somewhere to come back from; shaping a
    link needs no durable state."""
    seen: Dict[str, Any] = {}

    async def orchestrate(args, cluster, events):
        seen["wal_dir"] = cluster.wal_dir
        return {}

    monkeypatch.setattr(_ClusterProcs, "spawn_all", lambda self: None)
    monkeypatch.setattr(cluster_module, "_orchestrate", orchestrate)
    monkeypatch.setattr(
        cluster_module.tempfile, "mkdtemp", lambda prefix: str(tmp_path)
    )
    args = argparse.Namespace(
        n=4, system="astro2", seed=0, workload=None,
        secret="s", chaos=chaos, wal_dir=None,
    )
    run_cluster(args)
    assert seen["wal_dir"] == (str(tmp_path) if wants_wal else None)


def test_run_cluster_rejects_unknown_replica_before_spawning(monkeypatch):
    def spawn_all(self: _ClusterProcs) -> None:
        raise AssertionError("spawned despite an invalid timeline")

    monkeypatch.setattr(_ClusterProcs, "spawn_all", spawn_all)
    args = argparse.Namespace(
        n=4, system="astro2", seed=0, workload=None,
        secret="s", chaos="crash:9@1", wal_dir=None,
    )
    with pytest.raises(ValueError, match="replica"):
        run_cluster(args)

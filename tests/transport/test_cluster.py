"""Live-cluster assembly and in-process end-to-end settlement.

The multi-process runner is exercised by the CI ``live-smoke`` job; here
we pin the pieces that make it correct — deterministic cross-process
assembly, the control channel, and the same protocol objects reaching
settlement over real TCP sockets — with all N transports on one
in-process event loop so the test stays fast and debuggable.
"""

from __future__ import annotations

import argparse
import asyncio
import inspect
import os
from typing import Any, Dict, List

import pytest

from repro.core.messages import ClientConfirm, ClientSubmit
from repro.core.payment import Payment
from repro.crypto.signatures import sign
from repro.transport import cluster as cluster_module
from repro.transport.cluster import (
    ControlQuery,
    ControlReply,
    _build_directory,
    _ClusterProcs,
    _LoadGen,
    _replica_async,
    build_replica,
    default_genesis,
    run_cluster,
    serve_control,
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
# In-process end-to-end settlement over real sockets
# ---------------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("system", ["astro1", "astro2"])
def test_in_process_cluster_settles_payments(system):
    async def scenario():
        n = 4
        genesis = default_genesis(n)
        loop = asyncio.get_running_loop()

        transports: List[TcpTransport] = []
        replicas = []
        for node_id in range(n):
            transport = TcpTransport(node_id, SECRET)
            await transport.start()
            transports.append(transport)
        loadgen = TcpTransport(n, SECRET)
        await loadgen.start()

        peer_map = {
            t.node_id: ("127.0.0.1", t.port) for t in transports
        }
        peer_map[n] = ("127.0.0.1", loadgen.port)
        for transport in transports:
            replicas.append(
                build_replica(
                    system, n, transport, genesis, loadgen_node=n
                )
            )
            transport.connect(peer_map)
        loadgen.connect(peer_map)

        confirms: List[Payment] = []
        loadgen.on(
            ClientConfirm, lambda src, msg: confirms.append(msg.payment)
        )
        stats: Dict[int, Dict[str, int]] = {}
        loadgen.on(
            ControlReply,
            lambda src, msg: stats.__setitem__(msg.node_id, msg.body),
        )
        for transport in transports:
            serve_control(transport, replicas[transport.node_id])

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
        for transport in transports:
            loadgen.send(transport.node_id, ControlQuery(1, "stats"))
        deadline = loop.time() + 5.0
        while len(stats) < n and loop.time() < deadline:
            await asyncio.sleep(0.02)
        assert sorted(stats) == list(range(n))
        for body in stats.values():
            assert body == {"settled": num_payments, "rejected": 0}

        await loadgen.close()
        for transport in transports:
            await transport.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Control channel: one query/reply pair, collected with a deadline
# ---------------------------------------------------------------------------
async def _control_pair(serving: int):
    """A load generator expecting 2 replicas, ``serving`` of which exist.

    Returns ``(loadgen, replica transports)``; each transport serves a
    real replica object that has settled nothing yet.
    """
    n = 2
    genesis = default_genesis(n)
    parent = TcpTransport(n, SECRET)
    await parent.start()
    peers = {n: ("127.0.0.1", parent.port)}
    transports = []
    for node_id in range(serving):
        transport = TcpTransport(node_id, SECRET)
        await transport.start()
        peers[node_id] = ("127.0.0.1", transport.port)
        transports.append(transport)
    for transport in transports:
        serve_control(
            transport, build_replica("astro2", n, transport, genesis)
        )
        transport.connect(peers)
    parent.connect(peers)
    workload = make_workload("uniform", sorted(genesis, key=repr), seed=0)
    return _LoadGen(parent, n, genesis, workload), transports


async def _close(loadgen, transports) -> None:
    await loadgen.transport.close()
    for transport in transports:
        await transport.close()


def test_collect_gathers_both_readings_from_every_replica():
    async def scenario():
        loadgen, transports = await _control_pair(serving=2)
        stats = await loadgen.collect("stats")
        assert stats == {
            0: {"settled": 0, "rejected": 0},
            1: {"settled": 0, "rejected": 0},
        }
        state = await loadgen.collect("state")
        assert sorted(state) == [0, 1]
        assert state[0]["fingerprint"] == state[1]["fingerprint"]
        assert state[0]["balances"] == default_genesis(2)
        assert loadgen._waiters == {}
        await _close(loadgen, transports)

    asyncio.run(scenario())


def test_unknown_reading_is_ignored_and_collect_times_out_empty():
    async def scenario():
        loadgen, transports = await _control_pair(serving=2)
        loop = asyncio.get_running_loop()
        started = loop.time()
        assert await loadgen.collect("no-such-reading", timeout=0.3) == {}
        assert loop.time() - started >= 0.3
        # The replicas are unharmed: the next real query is answered.
        assert sorted(await loadgen.collect("stats")) == [0, 1]
        await _close(loadgen, transports)

    asyncio.run(scenario())


def test_collect_timeout_returns_the_partial_reply_set():
    """A crashed replica simply does not answer (here: never existed)."""

    async def scenario():
        loadgen, transports = await _control_pair(serving=1)
        replies = await loadgen.collect("stats", timeout=0.5)
        assert replies == {0: {"settled": 0, "rejected": 0}}
        await _close(loadgen, transports)

    asyncio.run(scenario())


def test_reply_with_a_stale_tag_is_dropped():
    async def scenario():
        loadgen, transports = await _control_pair(serving=1)
        first = await loadgen.collect("stats", timeout=0.3)
        assert sorted(first) == [0]
        # Tag 1 has timed out; an answer to it arriving now (a slow
        # replica) must not leak into the next collection or linger.
        transports[0].send(2, ControlReply(1, 1, {"settled": 99}))
        second = await loadgen.collect("stats", timeout=0.5)
        assert second == {0: {"settled": 0, "rejected": 0}}
        assert loadgen._waiters == {}
        await _close(loadgen, transports)

    asyncio.run(scenario())


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
        return argparse.Namespace(start=lambda: None, is_alive=lambda: False)


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
        return {"stub": True}

    monkeypatch.setattr(_ClusterProcs, "spawn_all", spawn_all)
    monkeypatch.setattr(cluster_module, "_orchestrate", orchestrate)
    args = argparse.Namespace(
        n=4, system="astro2", seed=0, workload="merchant",
        secret="s", chaos=None, wal_dir=None,
    )
    assert run_cluster(args) == {"stub": True}
    assert dict(os.environ) == environment
    assert seen == {"workload": "merchant", "events": None}
    # Every child is told the name: the entry point forwards its
    # arguments verbatim to _replica_async.
    parameters = list(inspect.signature(_replica_async).parameters)
    assert len(context.process_args) == 4
    for node_id, process_args in enumerate(context.process_args):
        bound = dict(zip(parameters, process_args, strict=True))
        assert bound["workload"] == "merchant"
        assert bound["node_id"] == node_id
        assert default_genesis(4, bound["workload"]) != default_genesis(4)


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

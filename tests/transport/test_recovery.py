"""Crash-recovery end to end: WAL replay, catch-up, and sim parity.

The slow test here is the in-process twin of the CI ``chaos-smoke``
lane: N=4 astro2 replicas with WAL+snapshots on, all transports on one
event loop.  Replica 1 "dies" (transport and store closed, object
dropped) mid-load, is rebuilt from scratch, replays its WAL to the
pre-crash fingerprint, catches up from a peer, and the cluster settles
100% of the offered payments.  The same workload and an equivalent
crash/recover timeline then run on the simulator (``sim/faults.py``) and
the live cluster's post-recovery settled state must match the
simulator's prediction for the correct replicas — same fingerprint
formula on both backends.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Set

import pytest

from repro.core.config import AstroConfig
from repro.core.messages import ClientConfirm, ClientSubmit
from repro.core.persistence import (
    CatchUpReply,
    CatchUpRequest,
    ReplicaStore,
    serve_catch_up,
    state_fingerprint,
)
from repro.core.system import Astro2System
from repro.sim.faults import FaultInjector
from repro.transport.chaos import apply_timeline, parse_timeline
from repro.transport.cluster import (
    ControlQuery,
    _build_directory,
    _run_catch_up,
    build_replica,
    default_genesis,
    payment_stream,
)
from repro.transport.tcp import TcpTransport
from repro.workloads.base import make_workload

SECRET = b"recovery-test-secret"

N = 4
PHASE_A = 24  # settled before the crash
PHASE_B = 12  # offered while replica 1 is down

#: Crash replica 1 after phase A settles, offer phase B, recover.
TIMELINE = "crash:1@1.0;recover:1@2.0"


async def wait_for(predicate, timeout: float = 30.0, interval: float = 0.02):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            pytest.fail("condition not reached within timeout")
        await asyncio.sleep(interval)


def _simulator_prediction():
    """Run the same workload + timeline on the simulator backend.

    Returns (correct-replica fingerprint, correct settled count, crashed
    replica's settled count).  The sim's asynchronous network never
    redelivers frames dropped while a node is down, so its recovered
    replica keeps only what it held at the crash — the delta to the live
    cluster is exactly what WAL catch-up contributes.
    """
    genesis = default_genesis(N)
    system = Astro2System(
        num_replicas=N,
        genesis=dict(genesis),
        config=AstroConfig(num_replicas=N),
        seed=0,
    )
    injector = FaultInjector(system.sim, system.network)
    apply_timeline(injector, parse_timeline(TIMELINE))

    clients = sorted(genesis, key=repr)
    stream = payment_stream(make_workload("uniform", clients, seed=0))
    phase_a = [next(stream) for _ in range(PHASE_A)]
    phase_b = [next(stream) for _ in range(PHASE_B)]
    for payment in phase_a:
        system.submit_payment(payment)

    def _offer_phase_b() -> None:
        for payment in phase_b:
            system.submit_payment(payment)

    rep_map = _build_directory(N, clients).rep_map

    def _retry_lost() -> None:
        # The sim network dropped the submissions addressed to the downed
        # representative; the live load generator's retry loop re-offers
        # unconfirmed payments, so the prediction models the same retry
        # after recovery.
        for payment in phase_b:
            if rep_map[payment.spender] == 1:
                system.submit_payment(payment)

    # Offered mid-outage: replica 1 misses these BRB instances for good.
    system.sim.schedule_at(1.3, _offer_phase_b)
    system.sim.schedule_at(2.3, _retry_lost)
    system.run(3.0)
    system.settle_all()

    correct = [r for r in system.replicas if r.node_id != 1]
    crashed = next(r for r in system.replicas if r.node_id == 1)
    prints = {state_fingerprint(r.state) for r in correct}
    assert len(prints) == 1
    counts = {r.settled_count for r in correct}
    assert counts == {PHASE_A + PHASE_B}
    assert [time for time, action, _ in injector.log] == [1.0, 2.0]
    return prints.pop(), PHASE_A + PHASE_B, crashed.settled_count


class _LiveReplica:
    """One in-process live replica: transport + protocol object + store."""

    def __init__(self, node_id: int, genesis: Dict[str, int], wal_root: str):
        self.node_id = node_id
        self.transport = TcpTransport(node_id, SECRET)
        self.replica = build_replica(
            "astro2", N, self.transport, genesis,
            loadgen_node=N, resend_acks=True,
        )
        self.store = ReplicaStore(
            wal_root, node_id, snapshot_interval=8, fingerprint_interval=4
        )
        self.report = self.replica.bind_persistence(self.store)
        self.catch_up_replies: asyncio.Queue = asyncio.Queue()
        self.transport.on(
            CatchUpRequest,
            lambda src, msg: self.transport.send(
                src, serve_catch_up(self.store, msg)
            ),
        )
        self.transport.on(
            CatchUpReply,
            lambda src, msg: self.catch_up_replies.put_nowait(msg),
        )

    async def start(self, port: int = 0) -> int:
        for attempt in range(50):
            try:
                return await self.transport.start(port)
            except OSError:
                if attempt == 49:
                    raise
                await asyncio.sleep(0.05)

    async def crash(self) -> None:
        """Drop everything a SIGKILL would: sockets, store, object."""
        await self.transport.close()
        self.store.close()


@pytest.mark.slow
def test_live_crash_recovery_matches_sim_prediction(tmp_path):
    expected_fp, expected_settled, sim_crashed_settled = (
        _simulator_prediction()
    )
    # Protocol-level recovery alone loses the mid-outage payments; the
    # live cluster's WAL catch-up must close exactly this gap.
    assert sim_crashed_settled < expected_settled

    async def scenario():
        genesis = default_genesis(N)
        wal_root = str(tmp_path)
        loop = asyncio.get_running_loop()

        nodes = [_LiveReplica(i, genesis, wal_root) for i in range(N)]
        for node in nodes:
            assert node.report.replayed == 0  # first boot: empty store
        loadgen = TcpTransport(N, SECRET)

        ports = [await node.start() for node in nodes]
        await loadgen.start()
        peer_map = {i: ("127.0.0.1", ports[i]) for i in range(N)}
        peer_map[N] = ("127.0.0.1", loadgen.port)
        for node in nodes:
            node.transport.connect(peer_map)
        loadgen.connect(peer_map)

        confirmed: Set[Any] = set()
        loadgen.on(
            ClientConfirm,
            lambda src, msg: confirmed.add(msg.payment.identifier),
        )

        rep_map = _build_directory(N, list(genesis)).rep_map
        clients = sorted(genesis, key=repr)
        stream = payment_stream(make_workload("uniform", clients, seed=0))

        def submit(count: int) -> List[Any]:
            payments = [next(stream) for _ in range(count)]
            for payment in payments:
                loadgen.send(rep_map[payment.spender], ClientSubmit(payment))
            return payments

        phase_a = submit(PHASE_A)
        await wait_for(
            lambda: {p.identifier for p in phase_a} <= confirmed
        )

        victim = nodes[1]
        pre_crash_fp = state_fingerprint(victim.replica.state)
        pre_crash_settled = victim.replica.settled_count
        await victim.crash()
        # Prove the loadgen's sender is back in its redial loop (where it
        # never dequeues) before offering phase B, so no ClientSubmit can
        # be lost in flight to the dead peer.
        failures = loadgen.stats.connect_failures
        while loadgen.stats.connect_failures == failures:
            loadgen.send(1, ControlQuery(0, "stats"))
            await asyncio.sleep(0.05)

        phase_b = submit(PHASE_B)
        assert any(rep_map[p.spender] == 1 for p in phase_b)

        # Rebuild replica 1 from nothing but its directory on disk.
        revived = _LiveReplica(1, genesis, wal_root)
        assert revived.report.fingerprint == pre_crash_fp
        assert state_fingerprint(revived.replica.state) == pre_crash_fp
        assert revived.replica.settled_count == pre_crash_settled
        await revived.start(ports[1])  # same address: peers just redial
        revived.transport.connect(peer_map)
        nodes[1] = revived

        started = loop.time()
        await _run_catch_up(
            revived.replica,
            revived.transport,
            revived.catch_up_replies,
            [0, 2, 3],
        )
        revived.replica.relaunch_pending()
        recovery_latency = loop.time() - started
        assert recovery_latency < 30.0

        everything = {p.identifier for p in phase_a + phase_b}
        await wait_for(lambda: everything <= confirmed)
        await wait_for(
            lambda: all(
                node.replica.settled_count == expected_settled
                for node in nodes
            )
        )

        prints = {state_fingerprint(node.replica.state) for node in nodes}
        assert prints == {expected_fp}
        assert all(not node.replica.rejected for node in nodes)

        await loadgen.close()
        for node in nodes:
            await node.crash()

    asyncio.run(scenario())

"""Crash-recovery end to end: WAL replay, catch-up, and sim parity.

The slow test here drives :class:`~repro.transport.live.ReplicaHost`
by hand through what the CI ``chaos-smoke`` lane does to it: N=4 astro2
hosts with WAL+snapshots on, all on one event loop.  Replica 1 "dies"
(host closed, object dropped) mid-load, a new host is built over the
same directory on disk, replays its WAL to the pre-crash fingerprint,
rebinds the old port, rejoins (catch-up from a peer, then relaunch), and
the cluster settles 100% of the offered payments.  The same workload and an equivalent
crash/recover timeline then run on the simulator (``sim/faults.py``) and
the live cluster's post-recovery settled state must match the
simulator's prediction for the correct replicas — same fingerprint
formula on both backends.
"""

from __future__ import annotations

import asyncio
from typing import Any, List, Set

import pytest

from repro.core.config import AstroConfig
from repro.core.messages import ClientConfirm, ClientSubmit
from repro.core.persistence import ReplicaStore, state_fingerprint
from repro.core.system import Astro2System
from repro.sim.faults import FaultInjector
from repro.transport.chaos import apply_timeline, parse_timeline
from repro.transport.live import (
    ControlQuery,
    ReplicaHost,
    _build_directory,
    default_genesis,
    payment_stream,
)
from repro.workloads.base import make_workload

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


def _store(wal_root: str, node_id: int) -> ReplicaStore:
    """Short intervals, so 36 payments cross several snapshots."""
    return ReplicaStore(
        wal_root, node_id, snapshot_interval=8, fingerprint_interval=4
    )


@pytest.mark.slow
def test_live_crash_recovery_matches_sim_prediction(tmp_path, boot_hosts):
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

        hosts, loadgen, peer_map = await boot_hosts(
            "astro2", N, N, [_store(wal_root, i) for i in range(N)]
        )
        for host in hosts:
            assert host.report.replayed == 0  # first boot: empty store
            first_boot = await host.rejoin()
            assert first_boot["imported"] == first_boot["relaunched"] == 0

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

        victim = hosts[1]
        pre_crash_fp = state_fingerprint(victim.replica.state)
        pre_crash_settled = victim.replica.settled_count
        # Everything a SIGKILL would drop: sockets, store, object.
        await victim.close()
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
        revived = ReplicaHost(
            "astro2", N, 1, victim.transport.secret, genesis, 0,
            _store(wal_root, 1),
        )
        assert revived.report.had_snapshot
        assert revived.report.fingerprint == pre_crash_fp
        assert state_fingerprint(revived.replica.state) == pre_crash_fp
        assert revived.replica.settled_count == pre_crash_settled
        # Same address: peers just redial.
        assert await revived.start(peer_map[1][1]) == peer_map[1][1]
        revived.transport.connect(peer_map)
        hosts[1] = revived

        started = loop.time()
        rejoined = await revived.rejoin()
        recovery_latency = loop.time() - started
        assert recovery_latency < 30.0
        assert rejoined["recovery"] == revived.report.as_dict()
        assert rejoined["imported"] > 0

        everything = {p.identifier for p in phase_a + phase_b}
        await wait_for(lambda: everything <= confirmed)
        await wait_for(
            lambda: all(
                host.replica.settled_count == expected_settled
                for host in hosts
            )
        )

        prints = {state_fingerprint(host.replica.state) for host in hosts}
        assert prints == {expected_fp}
        assert all(not host.replica.rejected for host in hosts)

        await loadgen.close()
        for host in hosts:
            await host.close()

    asyncio.run(scenario())

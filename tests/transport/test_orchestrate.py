"""The cluster's own orchestrator, run in-process.

``_orchestrate`` / ``_run_bench`` / ``_run_chaos`` and ``_ClusterProcs``
are the code the CLI runs; only the placement differs: the context
handed to ``_ClusterProcs`` is :class:`LoopContext`, so each replica is
a task on this test's loop instead of an OS process.  What the CI
``live-smoke`` / ``chaos-smoke`` lanes check once per push is therefore
checked here on every tier-1 run, in seconds.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import threading

import pytest

from repro.transport import cluster as cluster_module
from repro.transport.chaos import parse_timeline
from repro.transport.cluster import (
    LoopContext,
    ReplicaProcessError,
    _ClusterProcs,
    _orchestrate,
)

SECRET = b"in-loop-cluster"


def _args(**overrides) -> argparse.Namespace:
    settings = dict(
        n=4, system="astro2", rate=300.0, warmup=0.5, duration=2.0,
        grace=1.0, seed=0, chaos=None,
    )
    settings.update(overrides)
    return argparse.Namespace(**settings)


def _run(args, workload="uniform", wal_dir=None, before=None) -> dict:
    """What ``run_cluster`` does, with the replicas placed in-loop;
    ``before(cluster)`` may rig the cluster before it boots."""

    async def scenario():
        cluster = _ClusterProcs(LoopContext(), args, SECRET, wal_dir, workload)
        if before is not None:
            before(cluster)
        cluster.spawn_all()
        events = parse_timeline(args.chaos) if args.chaos else None
        try:
            return await _orchestrate(args, cluster, events)
        finally:
            cluster.terminate()

    return asyncio.run(scenario())


@pytest.mark.slow
def test_bench_mode_confirms_every_payment_on_every_replica():
    args = _args()
    report = _run(args)
    assert report["submitted"] == round(args.rate * (args.warmup + args.duration))
    assert report["confirmed"] == report["submitted"]
    assert report["measured_pps"] > 0
    assert report["settled_final_by_replica"] == {
        str(node_id): report["submitted"] for node_id in range(args.n)
    }
    assert set(report["rejected_final"].values()) == {0}


@pytest.mark.slow
def test_chaos_mode_kills_and_recovers_a_replica(tmp_path):
    args = _args(duration=4.0, chaos="crash:1@1;recover:1@2.5")
    report = _run(args, wal_dir=str(tmp_path))
    assert report["ok"], report
    assert report["drained"] and report["unconfirmed"] == 0
    assert report["fingerprints_equal"] and len(report["fingerprints"]) == 4
    assert report["monitor"]["ok"]
    assert [action for _t, action, _who in report["injected"]] == [
        "crash", "recover",
    ]
    recovered = report["recoveries"]["1"]
    assert {"recovery", "imported", "relaunched"} <= set(recovered)
    # It came back through ReplicaHost.rejoin(): state from its own
    # disk, the outage's batches from a peer.
    assert recovered["recovery"]["replayed"] > 0
    assert recovered["imported"] > 0


@pytest.mark.slow
@pytest.mark.xfail(
    strict=False,
    reason="ROADMAP item 1(ii): merchant payouts submitted around the "
    "outage never confirm (CREDITs sent to the dead replica are lost and "
    "nothing re-requests a certificate); the PR that fixes stranded "
    "payouts flips this",
)
def test_merchant_payouts_survive_a_crash(tmp_path, monkeypatch):
    """The documented red command, in-process: ``--workload merchant
    --rate 200 --duration 8 --chaos "crash:1@2;recover:1@5"``."""
    monkeypatch.setattr(cluster_module, "DRAIN_TIMEOUT", 5.0)
    args = _args(
        rate=200.0, warmup=2.0, duration=8.0, chaos="crash:1@2;recover:1@5"
    )
    report = _run(args, workload="merchant", wal_dir=str(tmp_path))
    assert report["monitor"]["ok"]
    assert report["unconfirmed"] == 0
    assert report["ok"]


@pytest.mark.slow
def test_unplanned_task_death_reaches_the_watchdog():
    def doom_replica_2(cluster: _ClusterProcs) -> None:
        boot = cluster.boot

        async def boot_then_doom(loadgen_address) -> None:
            await boot(loadgen_address)
            # Killed behind the cluster's back: not in ``cluster.down``.
            asyncio.get_running_loop().call_later(
                0.5, cluster.procs[2].kill
            )

        cluster.boot = boot_then_doom

    with pytest.raises(ReplicaProcessError, match="replica 2 .*-9"):
        _run(_args(duration=5.0), before=doom_replica_2)


def test_a_replica_task_that_raises_exits_nonzero_and_says_why(capsys):
    async def scenario():
        context = LoopContext()
        _ours, theirs = context.Pipe()
        arguments = (0, theirs, 0, "astro9", 4, SECRET, 0, None, "uniform")
        task = context.Process(target=None, args=arguments, daemon=True)
        task.start()
        assert task.exitcode is None
        while task.exitcode is None:
            await asyncio.sleep(0.01)
        return task.exitcode

    assert asyncio.run(scenario()) == 1
    assert "unknown system 'astro9'" in capsys.readouterr().err


def test_killing_a_task_that_waits_on_its_pipe_strands_no_thread():
    """``asyncio.run`` joins the default executor on exit: a replica
    killed while waiting for its peer map must not sit there in a
    blocking ``recv``."""
    outcome = {}

    async def scenario():
        cluster = _ClusterProcs(LoopContext(), _args(), SECRET, None, "uniform")
        cluster.spawn(3)
        assert await cluster.handshake(3) is None  # no store: no recovery
        assert cluster.ports[3] > 0
        cluster.kill(3)  # the peer map never comes
        while cluster.procs[3].exitcode is None:
            await asyncio.sleep(0.01)
        outcome["exitcode"] = cluster.procs[3].exitcode
        cluster.poll_unexpected()  # planned: no raise
        outcome["threads"] = threading.active_count()

    threads_before = threading.active_count()
    runner = threading.Thread(
        target=asyncio.run, args=(scenario(),), daemon=True
    )
    runner.start()
    runner.join(timeout=20.0)
    assert not runner.is_alive(), "asyncio.run is stuck joining a thread"
    assert outcome["exitcode"] == -signal.SIGKILL
    assert outcome["threads"] == threads_before + 1  # the runner itself

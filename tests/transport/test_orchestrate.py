"""The cluster's own orchestrator, run in-process.

``_orchestrate`` / ``_run`` and ``_ClusterProcs`` are the code the CLI
runs — one scenario runner, bench mode being the empty fault timeline;
only the placement differs: the context
handed to ``_ClusterProcs`` is :class:`LoopContext`, so each replica is
a task on this test's loop instead of an OS process.  What the CI
``live-smoke`` / ``chaos-smoke`` lanes check once per push is therefore
checked here on every tier-1 run, in seconds.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import signal
import threading

import pytest

from repro.core.astro2 import Astro2Replica
from repro.transport import cluster as cluster_module
from repro.transport import live as live_module
from repro.transport.chaos import parse_timeline
from repro.transport.cluster import (
    LoopContext,
    ReplicaProcessError,
    _ClusterProcs,
    _orchestrate,
)
from repro.transport.live import (
    ControlQuery,
    _LoadGen,
    default_genesis,
    payment_stream,
)
from repro.workloads.base import make_workload
from repro.workloads.merchant import is_merchant

SECRET = b"in-loop-cluster"


def _args(**overrides) -> argparse.Namespace:
    settings = dict(
        n=4, system="astro2", rate=300.0, warmup=0.5, duration=2.0,
        seed=0, chaos=None,
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
        events = parse_timeline(args.chaos or "")
        try:
            return await _orchestrate(args, cluster, events)
        finally:
            cluster.terminate()

    return asyncio.run(scenario())


def _held_by_fifo_replay(operations: int, n: int = 4, seed: int = 0) -> int:
    """Merchant payouts of the first ``operations`` payments that all of
    the run's purchase income cannot fund, spent first come first served
    per merchant — a payout that cannot be funded holds its successors."""
    genesis = default_genesis(n, "merchant")
    workload = make_workload("merchant", sorted(genesis, key=repr), seed=seed)
    payments = list(itertools.islice(payment_stream(workload), operations))
    funds = dict(genesis)
    for payment in payments:
        if not is_merchant(payment.spender):
            funds[payment.beneficiary] += payment.amount
    blocked, held = set(), 0
    for payment in payments:
        if not is_merchant(payment.spender):
            continue
        if payment.spender in blocked or funds[payment.spender] < payment.amount:
            blocked.add(payment.spender)
            held += 1
        else:
            funds[payment.spender] -= payment.amount
    return held


def test_fifo_replay_of_the_merchant_stream():
    assert [_held_by_fifo_replay(ops) for ops in (1200, 2000, 4500)] == [
        0, 28, 44,
    ]


@pytest.mark.slow
def test_bench_mode_confirms_every_payment_on_every_replica(monkeypatch):
    collected = []
    collect = _LoadGen.collect

    async def probed_collect(self, what, timeout=5.0):
        collected.append(what)
        return await collect(self, what, timeout)

    monkeypatch.setattr(_LoadGen, "collect", probed_collect)
    args = _args()
    assert parse_timeline(args.chaos or "") == []
    report = _run(args)
    assert report["submitted"] == round(args.rate * (args.warmup + args.duration))
    assert report["confirmed"] == report["submitted"]
    assert report["measured_pps"] > 0
    assert report["settled_final_by_replica"] == {
        str(node_id): report["submitted"] for node_id in range(args.n)
    }
    assert set(report["rejected_final"].values()) == {0}
    # Bench mode is the empty timeline, verdict included.
    assert report["ok"] and report["drained"] and report["reasons"] == []
    assert report["unconfirmed"] == report["stranded"] == 0
    assert report["monitor"]["ok"] and report["fingerprints_equal"]
    assert report["injected"] == [] and report["recoveries"] == {}
    assert report["wal_dir"] is None
    # Nothing is done to the cluster, so nothing watches the window: the
    # only state views are the verdict round's two, and the "wire" and
    # "collector" readings are taken before them.
    assert report["monitor"]["samples"] == 2
    assert collected == [
        "stats", "stats", "wire", "collector", "stats", "state", "state",
    ]
    assert report["wire_bytes_per_payment"] > 0
    assert report["views_missing"] == []
    assert sorted(report["full_collections_by_replica"]) == list("0123")
    peak = report["peak_rss_mb_by_replica"]
    assert sorted(peak) == list("0123") and min(peak.values()) > 0
    # The pacer's counters are the process's; this one has run many
    # deployments, so only the CLI's fresh processes can pin <= 1/20.
    assert report["full_collection_share"] >= 0.0


@pytest.mark.slow
def test_a_handler_exception_fails_the_verdict_and_names_itself(monkeypatch):
    """Replica 2's CREDIT handler raises once.  The transport counts it
    and carries on, so every payment still settles everywhere; the
    report names the exception and is not ok."""
    on_credit, raised = Astro2Replica._on_credit, []

    def armed(self, src, message):
        if self.node_id == 2 and not raised:
            raised.append(src)
            raise RuntimeError("armed for the test")
        return on_credit(self, src, message)

    monkeypatch.setattr(Astro2Replica, "_on_credit", armed)
    report = _run(_args(duration=1.0))
    assert raised
    errors = report["transport_errors_by_replica"]
    assert sorted(errors) == list("0123")
    assert errors["2"]["handler_errors"] == 1
    assert errors["2"]["first_handler_error"] == (
        "RuntimeError in the CreditMessage handler: armed for the test"
    )
    assert "in armed\n" in errors["2"]["first_handler_traceback"]
    for node in "013":
        assert errors[node]["handler_errors"] == 0
        assert errors[node]["first_handler_error"] is None
        assert errors[node]["first_handler_traceback"] is None
    assert report["stranded"] == 0 and report["fingerprints_equal"]
    assert report["monitor"]["ok"]
    assert not report["ok"]
    # The one failed condition, and it names the exception.
    assert report["reasons"] == [
        "replica 2: RuntimeError in the CreditMessage handler: "
        "armed for the test ×1"
    ]


@pytest.mark.slow
@pytest.mark.parametrize("system, queued", [("astro2", 0), ("astro1", 28)])
def test_bench_mode_tells_held_payouts_from_stranded_ones(system, queued):
    """2,000 merchant operations, no fault: the payouts that purchase
    income cannot fund stay *held* at the merchant's representative
    (Listing 7) — unconfirmed, not stranded, and not waited for.  Astro I
    broadcasts them first and waits at settle (§IV-A): queued at every
    replica, held where the representative answers for them."""
    args = _args(system=system, rate=500.0, warmup=1.0, duration=3.0)
    report = _run(args, workload="merchant")
    assert report["submitted"] == 2000
    held = report["held_final"]
    assert report["unconfirmed"] == sum(held.values()) == 28
    assert report["unconfirmed"] == _held_by_fifo_replay(report["submitted"])
    assert sorted(held.values()) == [0, 0, 0, 28]  # one merchant, one rep
    assert report["stranded"] == 0 and not report["drained"]
    assert set(report["queued_final"].values()) == {queued}
    assert set(report["rejected_final"].values()) == {0}
    assert report["ok"], report
    # The drain gave up on payments nobody will fund two retry rounds
    # in, not at DRAIN_TIMEOUT.
    assert report["wall_elapsed_s"] < (
        args.warmup + args.duration + cluster_module.DRAIN_TIMEOUT / 2
    )


@pytest.mark.slow
def test_chaos_mode_kills_and_recovers_a_replica(tmp_path):
    args = _args(duration=4.0, chaos="crash:1@1;recover:1@2.5")
    report = _run(args, wal_dir=str(tmp_path))
    assert report["ok"], report
    assert report["drained"] and report["unconfirmed"] == 0
    assert report["fingerprints_equal"] and len(report["fingerprints"]) == 4
    assert report["monitor"]["ok"]
    assert report["monitor"]["samples"] > 2  # the window was watched
    assert report["measured_pps"] > 0
    assert [action for _t, action, _who in report["injected"]] == [
        "crash", "recover",
    ]
    recovered = report["recoveries"]["1"]
    assert {"recovery", "imported", "relaunched"} <= set(recovered)
    # It came back through ReplicaHost.rejoin(): state from its own
    # disk, the outage's batches from a peer.
    assert recovered["recovery"]["replayed"] > 0
    assert recovered["imported"] > 0


@pytest.mark.parametrize("chaos", ["recover:1@1", "crash:1@1;crash:1@2"])
def test_a_replica_recovered_while_up_or_crashed_while_down_starts_nothing(
    chaos, tmp_path, monkeypatch
):
    """``recover:1@1`` used to start a second replica 1 mid-window, which
    failed to bind the running one's port and took the run down.  The
    timeline is refused before any replica starts."""
    started = []
    monkeypatch.setattr(
        _ClusterProcs, "spawn", lambda self, node_id, port=0: started.append(node_id)
    )
    args = _args(rate=100.0, warmup=1.0, duration=3.0, chaos=chaos)
    args.workload, args.secret, args.wal_dir = None, "s", str(tmp_path)
    with pytest.raises(ValueError, match="replica 1 is (up|down) then"):
        cluster_module.run_cluster(args)
    assert started == []


def _merchant_crash(victim: int, wal_dir) -> dict:
    """The documented chaos command, in-process: ``--workload merchant
    --rate 200 --duration 8 --chaos "crash:V@2;recover:V@5"``."""
    args = _args(
        rate=200.0, warmup=2.0, duration=8.0,
        chaos=f"crash:{victim}@2;recover:{victim}@5",
    )
    return _run(args, workload="merchant", wal_dir=str(wal_dir))


@pytest.mark.slow
def test_merchant_payouts_survive_a_crash(tmp_path):
    """Crashing a replica that represents no merchant changes nothing:
    the same 28 unfundable payouts stay held as with no fault at all."""
    report = _merchant_crash(1, tmp_path)
    assert report["monitor"]["ok"]
    assert report["unconfirmed"] == sum(report["held_final"].values()) == 28
    assert set(report["queued_final"].values()) == {0}
    assert report["stranded"] == 0
    assert report["ok"], report


@pytest.mark.slow
def test_merchant_payouts_survive_a_crash_of_their_representative(
    tmp_path, monkeypatch
):
    """The merchant's own representative crashes.  Back from its WAL, it
    derives the merchant's projected funds instead of restoring them, so
    no payout is over-projected: none is rejected at settle (Listing 9
    l.49 would leave its successors queued for ever), and what the run's
    income cannot fund stays held."""
    monkeypatch.setattr(cluster_module, "DRAIN_TIMEOUT", 5.0)
    report = _merchant_crash(3, tmp_path)
    assert report["monitor"]["ok"]
    assert set(report["rejected_final"].values()) == {0}
    assert set(report["queued_final"].values()) == {0}
    assert report["unconfirmed"] == sum(report["held_final"].values())
    assert report["stranded"] == 0
    assert report["ok"], report


def _slow_state_views(monkeypatch, node_id: int, delay) -> None:
    """Replica ``node_id`` answers a ``"state"`` query ``delay`` seconds
    late (``None``: never); every other reading is served as usual."""
    serve = live_module.serve_control

    def serve_late(transport, replica) -> None:
        serve(transport, replica)
        if transport.node_id != node_id:
            return
        answer = transport._handlers[ControlQuery]

        def on_query(src, query) -> None:
            if query.what != "state":
                answer(src, query)
            elif delay is not None:
                transport.clock.loop.call_later(delay, answer, src, query)

        transport.on(ControlQuery, on_query)

    monkeypatch.setattr(live_module, "serve_control", serve_late)


@pytest.mark.slow
def test_a_view_that_takes_longer_than_five_seconds_is_waited_for(monkeypatch):
    """A view ships whole xlogs; the verdict round used to give it 5 s
    and read a late one as a disagreement (``fingerprints: {}``)."""
    _slow_state_views(monkeypatch, 2, 5.2)
    report = _run(_args(duration=1.0))
    assert sorted(report["fingerprints"]) == list("0123")
    assert report["views_missing"] == []
    assert report["fingerprints_equal"] and report["ok"], report


@pytest.mark.slow
def test_a_view_that_never_arrives_is_missing_not_unequal(monkeypatch):
    monkeypatch.setattr(cluster_module, "DRAIN_TIMEOUT", 1.0)
    _slow_state_views(monkeypatch, 2, None)
    report = _run(_args(duration=1.0))
    assert report["views_missing"] == [2]
    assert sorted(report["fingerprints"]) == list("013")
    assert report["fingerprints_equal"]  # computed over those that came
    assert report["stranded"] == 0 and report["monitor"]["ok"]
    assert not report["ok"]


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

"""Chaos harness: timeline grammar, injectors, link faults, monitor input.

The point of the harness is that ONE timeline spec drives both backends:
the parsed events are scheduled on the simulator's ``FaultInjector`` by
:func:`apply_timeline` and executed by a :class:`LiveFaultInjector`
wired to process kill/restart callables.  These tests pin the grammar
(and what it rejects), both injectors' logs, TCP-level link-fault
shaping, and the live monitor input: ``"state"`` readings, fed to the
invariant monitor as the views it checks on both backends.
"""

from __future__ import annotations

import asyncio
import pickle
from array import array
from typing import Any, Dict, List

import pytest

from repro.adversary.monitor import (
    InvariantMonitor,
    genesis_view,
    replica_state_view,
)
from repro.bench.systems import SYSTEM_BUILDERS, client_ids_of
from repro.core.persistence import state_fingerprint
from repro.sim.events import Simulator
from repro.sim.faults import FaultInjector
from repro.sim.latency import europe_wan
from repro.sim.network import Network
from repro.transport.chaos import (
    FaultEvent,
    LinkFault,
    LiveFaultInjector,
    apply_link_fault,
    apply_timeline,
    check_replica_ids,
    parse_timeline,
)
from repro.transport.cluster import ReplicaProcessError, _ClusterProcs
from repro.transport.live import _state_reading
from repro.transport.tcp import TcpTransport

SECRET = b"chaos-test-secret"


class Ping:
    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __reduce__(self):
        return (Ping, (self.value,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ping) and other.value == self.value


async def wait_for(predicate, timeout: float = 5.0, interval: float = 0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            pytest.fail("condition not reached within timeout")
        await asyncio.sleep(interval)


async def make_pair():
    a = TcpTransport(0, SECRET)
    b = TcpTransport(1, SECRET)
    pa, pb = await a.start(), await b.start()
    peers = {0: ("127.0.0.1", pa), 1: ("127.0.0.1", pb)}
    a.connect(peers)
    b.connect(peers)
    return a, b


def collect(transport: TcpTransport) -> List[Any]:
    inbox: List[Any] = []
    transport.on(Ping, lambda src, msg: inbox.append((src, msg)))
    return inbox


# ---------------------------------------------------------------------------
# Timeline grammar
# ---------------------------------------------------------------------------
def test_parse_timeline_full_grammar():
    events = parse_timeline(
        "recover:1@10; crash:1@5;delay:2x0.05@3;drop:2x0.3@3;"
        "partition:0,1|2,3@4;heal@8"
    )
    assert events == [
        FaultEvent(3.0, "delay", (2, 0.05)),
        FaultEvent(3.0, "drop", (2, 0.3)),
        FaultEvent(4.0, "partition", ((0, 1), (2, 3))),
        FaultEvent(5.0, "crash", (1,)),
        FaultEvent(8.0, "heal", ()),
        FaultEvent(10.0, "recover", (1,)),
    ]


def test_parse_timeline_ignores_empty_chunks():
    assert parse_timeline("") == []
    assert parse_timeline(" ; crash:0@1 ; ") == [FaultEvent(1.0, "crash", (0,))]


@pytest.mark.parametrize(
    "spec",
    [
        "crash:1",  # no @time
        "delay:2@3",  # missing 'x' separator
        "partition:0,1@4",  # missing '|'
        "reboot:1@5",  # unknown action
        "crash:x@5",  # non-integer node
        "crash:1@-5",  # negative time
        "crash:1@nan",  # NaN time (would also unorder the sort)
        "crash:1@inf",  # never
        "crash:-1@5",  # negative replica id
        "delay:2x-0.05@3",  # negative delay
        "delay:2xinf@3",  # unbounded delay
        "drop:2x1.7@3",  # probability above 1
        "drop:2x-0.1@3",  # probability below 0
        "drop:2xnan@3",  # NaN probability
        "partition:|2@1",  # empty group
        "partition:0,1|1,2@4",  # overlapping groups (was the live
        # injector's own check)
        "heal:1@8",  # heal is global; a body would be silently ignored
        "recover:1@1",  # recovers a replica that is up
        "crash:1@1;crash:1@2",  # crashes a replica that is down
        "recover:1@1;crash:1@2",  # in time order, not spec order
        "crash:1@1;recover:1@2;recover:1@3",
        "crash:1@1;recover:2@2",  # the other replica is up
    ],
)
def test_parse_timeline_rejects_malformed(spec):
    with pytest.raises(ValueError):
        parse_timeline(spec)


def test_parse_timeline_names_the_event_that_has_a_replica_down_or_up():
    with pytest.raises(ValueError, match=r"recover:1@1: replica 1 is up"):
        parse_timeline("recover:1@1")
    with pytest.raises(ValueError, match=r"crash:1@2: replica 1 is down"):
        parse_timeline("crash:1@1;crash:1@2")
    spec = "crash:1@1;crash:2@1.5;recover:1@2;recover:2@3;crash:1@4;recover:1@5"
    assert [(e.action, e.args) for e in parse_timeline(spec)] == [
        ("crash", (1,)),
        ("crash", (2,)),
        ("recover", (1,)),
        ("recover", (2,)),
        ("crash", (1,)),
        ("recover", (1,)),
    ]


def test_parse_timeline_normalizes_partition_groups():
    """Duplicates within a group are tolerated, as the simulator's
    injector tolerates them; members come out sorted."""
    (event,) = parse_timeline("partition:3,2,2|0@1")
    assert event.args == ((2, 3), (0,))
    assert event.nodes == (2, 3, 0)


def test_check_replica_ids_rejects_ids_the_cluster_lacks():
    """``--chaos "crash:9@1"`` on N=4 used to KeyError mid-run."""
    events = parse_timeline("crash:1@1;partition:0,1|2,3@2;heal@3")
    check_replica_ids(events, 4)
    with pytest.raises(ValueError, match=r"\[9\]"):
        check_replica_ids(parse_timeline("crash:9@1"), 4)
    with pytest.raises(ValueError, match=r"\[4\]"):
        check_replica_ids(parse_timeline("partition:0|4@1"), 4)
    with pytest.raises(ValueError, match=r"\[3\]"):
        check_replica_ids(events, 3)


# ---------------------------------------------------------------------------
# apply_timeline on the simulator injector
# ---------------------------------------------------------------------------
def _sim_injector() -> FaultInjector:
    sim = Simulator()
    network = Network(sim, europe_wan(8, seed=0))
    return FaultInjector(sim, network)


def test_apply_timeline_drives_sim_injector():
    injector = _sim_injector()
    apply_timeline(
        injector,
        parse_timeline("crash:1@0.5;delay:2x0.1@1.0;recover:1@1.5;heal@2.0"),
    )
    injector.sim.run(until=3.0)
    assert injector.log == [
        (0.5, "crash", 1),
        (1.0, "delay", (2, 0.1)),
        (1.5, "recover", 1),
        (2.0, "heal", None),
    ]


def test_apply_timeline_start_offsets_every_action():
    """Timeline times count from the measurement window's first second:
    ``start`` shifts each event, whatever its action."""
    injector = _sim_injector()
    apply_timeline(
        injector,
        parse_timeline(
            "crash:1@0.5;delay:2x0.1@1.0;partition:0|3@1.25;"
            "recover:1@1.5;heal@2.0"
        ),
        start=4.0,
    )
    injector.sim.run(until=7.0)
    assert [(at, action) for at, action, _what in injector.log] == [
        (4.5, "crash"), (5.0, "delay"), (5.25, "partition"),
        (5.5, "recover"), (6.0, "heal"),
    ]


def test_drop_is_live_only():
    """The sim injector has no probabilistic loss; the spec must say so."""
    with pytest.raises(ValueError, match="does not support"):
        apply_timeline(_sim_injector(), parse_timeline("drop:1x0.5@1"))


# ---------------------------------------------------------------------------
# LiveFaultInjector
# ---------------------------------------------------------------------------
def test_live_injector_executes_schedule():
    crashed: List[int] = []
    recovered: List[int] = []
    shipped: List[Any] = []

    async def recover_fn(node_id: int) -> None:  # coroutine fault fn
        recovered.append(node_id)

    injector = LiveFaultInjector(
        crash_fn=crashed.append,
        recover_fn=recover_fn,
        link_fn=lambda node_id, fault: shipped.append((node_id, fault)),
        replica_ids=[0, 1, 2, 3],
        events=parse_timeline(
            "crash:1@0.01;delay:2x0.05@0.02;drop:3x0.25@0.03;"
            "partition:0,1|2,3@0.04;recover:1@0.05;heal@0.06"
        ),
    )

    async def scenario():
        await injector.run(asyncio.get_running_loop().time())

    asyncio.run(scenario())

    assert crashed == [1]
    assert recovered == [1]
    assert [action for _, action, _ in injector.log] == [
        "crash", "delay", "drop", "partition", "recover", "heal",
    ]
    delay_order = shipped[0]
    assert delay_order[0] == 2 and delay_order[1].delay == 0.05
    drop_order = shipped[1]
    assert drop_order[0] == 3 and drop_order[1].drop == 0.25
    # Partition ships a block order to every member of both groups.
    partition_orders = shipped[2:6]
    assert {(n, f.targets) for n, f in partition_orders} == {
        (0, (2, 3)), (1, (2, 3)), (2, (0, 1)), (3, (0, 1)),
    }
    assert all(f.block for _, f in partition_orders)
    # Heal clears shaping on every replica.
    heal_orders = shipped[6:]
    assert [n for n, _ in heal_orders] == [0, 1, 2, 3]
    assert all(f.clear for _, f in heal_orders)


# ---------------------------------------------------------------------------
# LinkFault shaping on a real transport pair
# ---------------------------------------------------------------------------
def test_link_fault_block_and_clear_on_tcp_pair():
    async def scenario():
        a, b = await make_pair()
        inbox = collect(b)

        a.send(1, Ping("before"))
        await wait_for(lambda: len(inbox) == 1)

        apply_link_fault(a, LinkFault((1,), block=True))
        for value in range(5):
            a.send(1, Ping(value))
        await wait_for(lambda: a.stats.fault_dropped == 5)
        assert len(inbox) == 1

        apply_link_fault(a, LinkFault(None, clear=True))
        a.send(1, Ping("after"))
        await wait_for(lambda: len(inbox) == 2)
        assert inbox[-1][1] == Ping("after")

        await a.close()
        await b.close()

    asyncio.run(scenario())


def test_link_fault_all_peers_skips_self():
    async def scenario():
        a, b = await make_pair()
        # targets=None expands to all known peers minus the sender.
        apply_link_fault(a, LinkFault(None, block=True))
        a.send(1, Ping("blocked"))
        await wait_for(lambda: a.stats.fault_dropped == 1)
        await a.close()
        await b.close()

    asyncio.run(scenario())


def test_link_fault_pickle_roundtrip():
    fault = LinkFault((1, 2), block=True, drop=0.25, delay=0.05, clear=False)
    clone = pickle.loads(pickle.dumps(fault))
    assert (
        clone.targets, clone.block, clone.drop, clone.delay, clone.clear
    ) == ((1, 2), True, 0.25, 0.05, False)


# ---------------------------------------------------------------------------
# Live monitor input: "state" readings of a driven system, fed as views
# ---------------------------------------------------------------------------
def _driven_astro2():
    system = SYSTEM_BUILDERS["astro2"](4, seed=11)
    clients = client_ids_of(system)
    for index in range(16):
        system.submit(clients[index % 16], clients[(index + 1) % 16], 2)
    system.settle_all()
    return system


def _live_monitor(system, dep_grace=1):
    """A monitor built as the cluster's parent builds it: from the
    genesis view, every replica alike."""
    genesis = genesis_view(system.genesis, deps=True)
    return InvariantMonitor(
        dict.fromkeys(range(4), genesis), system.directory, dep_grace
    )


def _readings(system, skip=()):
    """Each replica's ``"state"`` reading after the wire round trip."""
    return {
        r.node_id: pickle.loads(pickle.dumps(_state_reading(r)))
        for r in system.replicas
        if r.node_id not in skip
    }


def test_live_feed_samples_real_snapshots_safe():
    system = _driven_astro2()
    monitor = _live_monitor(system)
    assert monitor.mode == "deps"
    for round_no in (1, 2):
        monitor.sample(float(round_no), _readings(system))
    assert monitor.verdict()["ok"]


def test_state_reading_carries_the_state_fingerprint():
    """The verdict compares the readings' fingerprints; each must be the
    replica's own, and the rest of the reading the monitor's view."""
    system = _driven_astro2()
    for replica in system.replicas:
        reading = _state_reading(replica)
        assert reading.pop("fingerprint") == state_fingerprint(replica.state)
        assert reading == replica_state_view(replica)


def test_live_feed_frozen_crashed_view_stays_safe():
    """A crashed replica sends no view; its last one must still pass."""
    system = _driven_astro2()
    monitor = _live_monitor(system)
    monitor.sample(1.0, _readings(system))
    # Replica 1 "crashes": rounds 2..4 only carry the survivors.
    for round_no in (2, 3, 4):
        monitor.sample(float(round_no), _readings(system, skip=(1,)))
    assert monitor.verdict()["ok"]


def test_live_feed_flags_tampered_balance():
    system = _driven_astro2()
    monitor = _live_monitor(system)
    readings = _readings(system)
    victim = next(iter(readings[2]["balances"]))
    readings[2]["balances"][victim] = -5
    monitor.sample(1.0, readings)
    verdict = monitor.verdict()
    assert not verdict["ok"]
    assert any(
        v["invariant"] == "non_negative" and v["replica"] == 2
        for v in verdict["violations"]
    )


def test_atomic_mode_detected_without_deps():
    genesis = genesis_view({"a": 10}, deps=False)
    monitor = InvariantMonitor(dict.fromkeys(range(4), genesis))
    assert monitor.mode == "atomic"
    monitor.sample(0.5, {})
    assert monitor.verdict()["ok"]


# ---------------------------------------------------------------------------
# dep_grace: sampling skew between live captures
# ---------------------------------------------------------------------------
def _deps_monitor(dep_grace: int) -> InvariantMonitor:
    genesis = genesis_view({"a": 100, "z": 100}, deps=True)
    return InvariantMonitor(dict.fromkeys(range(2), genesis), None, dep_grace)


def _settler_view(resolved_credit: bool) -> Dict[str, Any]:
    """Replica 0 materialized ("z", 1) crediting 5 to client "a"."""
    return {
        "balances": {"a": 105 if resolved_credit else 100, "z": 100},
        "seqnums": {},
        "xlogs": {},
        "used_deps": {"a": (("z", 1),)},
    }


def _crediting_view() -> Dict[str, Any]:
    """Replica 1 logged the payment z#1 that funds the dependency."""
    return {
        "balances": {"a": 100, "z": 95},
        "seqnums": {"z": 1},
        "xlogs": {"z": (("a",), array("q", [5]), {})},
        "used_deps": {},
    }


def test_dep_grace_absorbs_one_sample_of_skew():
    monitor = _deps_monitor(dep_grace=1)
    # Round 1: the settler's capture arrived before the crediting
    # replica's — the dependency looks unknown for exactly one sample.
    monitor.sample(1.0, {0: _settler_view(True)})
    assert monitor.verdict()["ok"]
    # Round 2: the crediting payment shows up; the dependency resolves.
    monitor.sample(2.0, {1: _crediting_view()})
    monitor.sample(3.0, {})
    assert monitor.verdict()["ok"]


def test_dep_grace_still_flags_fabricated_certificates():
    monitor = _deps_monitor(dep_grace=1)
    monitor.sample(1.0, {0: _settler_view(True)})
    assert monitor.verdict()["ok"]  # within grace
    monitor.sample(2.0, {})  # never resolves: flag it
    verdict = monitor.verdict()
    assert not verdict["ok"]
    assert any(
        v["invariant"] == "conservation" and "unknown_dep" in v
        for v in verdict["violations"]
    )


def test_dep_grace_zero_keeps_simulator_strictness():
    monitor = _deps_monitor(dep_grace=0)
    monitor.sample(1.0, {0: _settler_view(True)})
    assert not monitor.verdict()["ok"]


# ---------------------------------------------------------------------------
# Watchdog: unexpected process death is a named, fail-fast error
# ---------------------------------------------------------------------------
class _FakeProc:
    def __init__(self, exitcode):
        self.exitcode = exitcode


def test_poll_unexpected_names_the_dead_replica():
    cluster = _ClusterProcs(None, None, b"", None, "uniform")
    cluster.procs = {0: _FakeProc(None), 1: _FakeProc(None), 2: _FakeProc(-9)}
    with pytest.raises(ReplicaProcessError, match="replica 2 .*-9"):
        cluster.poll_unexpected()


def test_poll_unexpected_exempts_planned_kills():
    cluster = _ClusterProcs(None, None, b"", None, "uniform")
    cluster.procs = {0: _FakeProc(None), 1: _FakeProc(-9)}
    cluster.down = {1}
    cluster.poll_unexpected()  # no raise: replica 1 is down on purpose

"""The simulator's collector policy (see ``repro.sim.events``).

``Simulator.run`` pauses the cyclic garbage collector.  That is only safe
while the event loop allocates no reference cycles, so the invariant is
pinned here for every system, and the harnesses' scenario-boundary
collections — which reclaim whole (cyclic) systems — are pinned beside it.
"""

import functools
import gc
import weakref

import pytest

from repro.adversary import install_adversary
from repro.bench.jobs import exec_open_loop_messages
from repro.bench.parallel import ScenarioJob, execute
from repro.bench.peak import find_peak
from repro.bench.runner import setup_open_loop
from repro.bench.systems import SYSTEM_BUILDERS
from repro.brb.bracha import BrachaBroadcast
from repro.reconfig.views import View
from repro.sim import ConstantLatency, Network, Node, Simulator
from repro.sim.events import SimulationError

#: Events each invariant run must execute before it is judged.
EVENTS = 100_000


@pytest.fixture
def collector_off():
    """A clean heap with the collector off; restored afterwards."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def _drive_open_loop(name, size, attack=None):
    """Run ``name`` at N=``size`` under open-loop load for EVENTS events."""
    system = SYSTEM_BUILDERS[name](size, seed=3)
    if attack is not None:
        install_adversary(system, attack, seed=3)
    setup_open_loop(system, rate=100.0, duration=600.0, warmup=0.0, seed=3)
    # Builders and drivers are cyclic by design; only the loop is judged.
    gc.collect()
    until = 0.0
    while system.sim.events_executed < EVENTS:
        until += 1.0
        assert until < 600.0, "load ended before the event budget"
        system.run(until)
    return system


# ---------------------------------------------------------------------------
# The invariant: the event loop allocates no reference cycles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("size", [4, 5, 6, 7])
@pytest.mark.parametrize("name", ["astro1", "astro2", "bft"])
def test_event_loop_allocates_no_cycles(collector_off, name, size):
    system = _drive_open_loop(name, size)  # kept alive: it is cyclic
    assert gc.collect() == 0
    assert system.sim.events_executed >= EVENTS


def test_certificate_path_allocates_no_cycles(collector_off, monkeypatch):
    """Merchant payouts are credit-funded: CREDITs, certificates and
    dependency-carrying payments all cross the loop."""
    monkeypatch.setenv("REPRO_WORKLOAD", "merchant")
    system = _drive_open_loop("astro2", 4)
    assert sum(r._collector.minted_subbatches for r in system.replicas) > 0
    assert gc.collect() == 0


def test_adversary_tap_allocates_no_cycles(collector_off):
    """An installed egress tap (replayed stale traffic) shadows the
    replicas' send/broadcast for the whole run."""
    system = _drive_open_loop("astro2", 4, attack="replay")
    assert system.adversary.byzantine_ids
    assert gc.collect() == 0


def test_reconfiguration_allocates_no_cycles(collector_off):
    """Bracha broadcasts across repeated view changes (DBRB)."""
    sim = Simulator()
    network = Network(sim, latency=ConstantLatency(0.005))
    view = View(0, range(4))
    layers = [
        BrachaBroadcast(Node(sim, i, network), range(4), lambda o, s, p: None)
        for i in range(6)
    ]
    gc.collect()
    seq = 0
    while sim.events_executed < EVENTS:
        seq += 1
        layers[seq % 4].broadcast((seq - 1) // 4 + 1, f"m{seq}", 100)
        if seq % 50 == 0:
            view = (
                view.without_member(4)
                if 4 in view.members
                else view.with_member(4)
            )
            for layer in layers:
                layer.install_view(view)
        sim.run_until_idle()
    assert view.number > 0
    assert gc.collect() == 0


# ---------------------------------------------------------------------------
# run() owns the collector state and gives it back
# ---------------------------------------------------------------------------


def test_run_pauses_and_restores_collector():
    assert gc.isenabled()
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
    sim.run()
    assert seen == [False]
    assert gc.isenabled()


def test_run_installs_no_collector_callback():
    """The live loop's pacer (``repro.transport.collector``) is held by
    started ``TcpTransport``s; no simulator run starts one, so the two
    policies never meet."""
    system = SYSTEM_BUILDERS["astro2"](4, seed=3)
    setup_open_loop(system, rate=100.0, duration=1.0, warmup=0.0, seed=3)
    callbacks, thresholds = list(gc.callbacks), gc.get_threshold()
    inside = []
    system.sim.schedule(0.5, lambda: inside.append(list(gc.callbacks)))
    system.run(2.0)
    assert inside == [callbacks]
    assert gc.callbacks == callbacks and gc.get_threshold() == thresholds


def test_run_restores_collector_when_callback_raises():
    sim = Simulator()

    def boom():
        raise ValueError("callback failed")

    sim.schedule(1.0, boom)
    with pytest.raises(ValueError):
        sim.run()
    assert gc.isenabled()
    assert sim.run() == 0  # not left marked as running either


def test_reentrant_run_leaves_the_outer_pause_alone():
    sim = Simulator()
    seen = []

    def reenter():
        with pytest.raises(SimulationError, match="not reentrant"):
            sim.run()
        seen.append(gc.isenabled())

    sim.schedule(1.0, reenter)
    sim.run()
    assert seen == [False]  # the refused inner call did not re-enable it
    assert gc.isenabled()


def test_run_leaves_collector_off_when_caller_had_it_off(collector_off):
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert not gc.isenabled()


# ---------------------------------------------------------------------------
# Scenario boundaries reclaim the previous (cyclic) system
# ---------------------------------------------------------------------------


class _BuildWitness:
    """Wraps a system builder: before each rebuild, records whether the
    previously built system is gone and what a full collection still
    finds."""

    def __init__(self, builder):
        self._builder = builder
        self._previous = None
        self.observations = []

    def __call__(self, *args, **kwargs):
        if self._previous is not None:
            self.observations.append((self._previous() is None, gc.collect()))
        system = self._builder(*args, **kwargs)
        self._previous = weakref.ref(system.replicas[0])
        return system


@pytest.fixture
def astro2_witness(monkeypatch):
    witness = _BuildWitness(SYSTEM_BUILDERS["astro2"])
    monkeypatch.setitem(SYSTEM_BUILDERS, "astro2", witness)
    return witness


def test_serial_jobs_do_not_stack_systems(astro2_witness):
    job = ScenarioJob(
        fn=exec_open_loop_messages,
        params=dict(
            system="astro2", size=4, rate=400.0, duration=0.4, warmup=0.3
        ),
    )
    execute([job, job], jobs=1)
    [(previous_dead, unreachable)] = astro2_witness.observations
    assert previous_dead
    assert unreachable < 50


def test_fresh_peak_probes_do_not_stack_systems(astro2_witness):
    result = find_peak(
        functools.partial(SYSTEM_BUILDERS["astro2"], 4, seed=0),
        start_rate=400.0, duration=0.4, warmup=0.3, max_probes=2,
    )
    assert len(result.probes) == 2
    [(previous_dead, unreachable)] = astro2_witness.observations
    assert previous_dead
    assert unreachable < 50

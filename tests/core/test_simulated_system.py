"""One simulated-system base under Astro and the consensus baseline."""

from __future__ import annotations

import pytest

from repro.consensus.system import BftSystem
from repro.core.system import Astro1System, Astro2System, SimulatedSystem
from repro.sim.events import Simulator
from repro.sim.faults import FaultInjector
from repro.sim.latency import europe_wan
from repro.sim.network import Network

GENESIS = {"a": 50, "b": 0}


@pytest.mark.parametrize("cls", [Astro1System, Astro2System, BftSystem])
def test_every_system_is_built_on_the_one_scaffold(cls):
    sim = Simulator()
    network = Network(sim, latency=europe_wan(4, seed=2))
    genesis = dict(GENESIS)
    system = cls(num_replicas=4, genesis=genesis, sim=sim, network=network)
    assert isinstance(system, SimulatedSystem)
    assert system.sim is sim and system.network is network
    assert isinstance(system.faults, FaultInjector)
    assert system.faults.network is network
    # A private copy: the caller's mapping is never aliased.
    assert system.genesis == genesis and system.genesis is not genesis
    assert [r.node_id for r in system.replicas] == [0, 1, 2, 3]
    assert system.replica(2) is system.replicas[2]
    assert system.balances_at(1) == GENESIS
    # The scaffold's methods are inherited, not re-declared per design.
    for name in ("next_seq", "make_payment", "run", "replica", "balances_at"):
        assert getattr(cls, name) is getattr(SimulatedSystem, name)


def test_make_payment_stamps_identically_across_designs():
    stamps = []
    for cls in (Astro1System, BftSystem):
        sim = Simulator()
        network = Network(sim, latency=europe_wan(4, seed=2))
        system = cls(num_replicas=4, genesis=dict(GENESIS), sim=sim,
                     network=network)
        system.run(until=0.125)
        first = system.make_payment("a", "b", 3)
        second = system.make_payment("a", "b", 4)
        assert system.next_seq("a") == 3 and system.next_seq("b") == 1
        stamps.append([
            (p.spender, p.seq, p.beneficiary, p.amount)
            for p in (first, second)
        ])
    assert stamps[0] == stamps[1]
    assert stamps[0][0] == ("a", 1, "b", 3)


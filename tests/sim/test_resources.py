"""Unit tests for the FIFO resource servers (CPU / NIC)."""

import pytest

from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.resources import CpuServer, FifoServer, LinkServer


def test_jobs_serve_fifo_and_accumulate():
    sim = Simulator()
    server = FifoServer(sim, rate=1.0)
    done = []
    for job, cost in (("a", 1.0), ("b", 2.0)):
        sim.call_at(server.occupy(cost), done.append, job)
    sim.run_until_idle()
    assert done == ["a", "b"]
    assert sim.now == 3.0


def test_rate_divides_service_time():
    sim = Simulator()
    server = FifoServer(sim, rate=2.0)
    completion = server.occupy(1.0)
    assert completion == pytest.approx(0.5)


def test_idle_server_starts_at_now():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run_until_idle()
    server = FifoServer(sim)
    assert server.occupy(1.0) == pytest.approx(6.0)


def test_backlog_reflects_queued_work():
    sim = Simulator()
    server = FifoServer(sim)
    assert server.backlog == 0.0
    server.occupy(2.0)
    assert server.backlog == pytest.approx(2.0)


def test_occupy_charges_without_callback_event():
    sim = Simulator()
    server = FifoServer(sim)
    server.occupy(1.5)
    assert server.backlog == pytest.approx(1.5)
    assert sim.pending == 0


def test_utilization_tracking():
    sim = Simulator()
    server = FifoServer(sim)
    sim.call_at(server.occupy(1.0), lambda: None)
    sim.run_until_idle()
    assert server.utilization(2.0) == pytest.approx(0.5)
    assert server.jobs_served == 1


def test_negative_service_time_rejected():
    sim = Simulator()
    server = FifoServer(sim)
    with pytest.raises(ValueError):
        server.occupy(-1.0)
    with pytest.raises(ValueError):
        server.occupy_many(-1.0, 3)


def test_invalid_rate_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        FifoServer(sim, rate=0.0)


def test_cpu_server_pools_cores():
    sim = Simulator()
    cpu = CpuServer(sim, cores=2.0)
    assert cpu.occupy(1.0) == pytest.approx(0.5)


def _link_pair(bandwidth):
    sim = Simulator()
    network = Network(sim, latency=ConstantLatency(0.0))
    nodes = [Node(sim, i, network, bandwidth=bandwidth) for i in range(2)]
    arrivals = []
    nodes[1].on(str, lambda src, msg: arrivals.append(sim.now))
    return sim, nodes, arrivals


def test_link_server_transmit_time():
    # The network charges a copy's serialization, size / bandwidth, on
    # the sender's link; with no delay the copy arrives when it is out.
    sim, nodes, _arrivals = _link_pair(bandwidth=1000.0)
    nodes[0].send(1, "x", size=500, recv_cost=0.0)
    assert nodes[0].link.backlog == pytest.approx(0.5)
    assert nodes[0].link.jobs_served == 1
    sim.run_until_idle()
    assert sim.now == pytest.approx(0.5)


def test_link_serializes_messages_back_to_back():
    for fan_out in (False, True):
        sim, nodes, arrivals = _link_pair(bandwidth=100.0)
        if fan_out:
            nodes[0].broadcast([1, 1], "x", size=100, recv_cost=0.0)
        else:
            nodes[0].send(1, "x", size=100, recv_cost=0.0)
            nodes[0].send(1, "y", size=100, recv_cost=0.0)
        sim.run_until_idle()
        assert arrivals == [pytest.approx(1.0), pytest.approx(2.0)]
        assert nodes[0].link.busy_time == pytest.approx(2.0)


def test_link_invalid_bandwidth_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        LinkServer(sim, bandwidth=0)


# ---------------------------------------------------------------------------
# occupy_many == that many occupy calls, bit for bit (a broadcast's
# per-copy send cost)
# ---------------------------------------------------------------------------

def _server_state(server):
    return (server._busy_until.hex(), server.busy_time.hex(), server.jobs_served)


@pytest.mark.parametrize("jobs", [0, 1, 3, 31, 99])
@pytest.mark.parametrize("backlog", [0.0, 0.0123])
def test_occupy_many_is_repeated_occupy_bit_for_bit(jobs, backlog):
    cost = 7.3e-6  # not a power of two: every addition rounds
    states = []
    for batched in (False, True):
        sim = Simulator()
        sim.schedule(0.25, lambda: None)
        sim.run_until_idle()  # a clock that is not at 0
        server = CpuServer(sim, cores=2.0)
        if backlog:
            server.occupy(backlog)
        else:
            server._busy_until = 0.1  # idle: stale and below now
        if batched:
            done = server.occupy_many(cost, jobs)
        else:
            done = server._busy_until
            for _ in range(jobs):
                done = server.occupy(cost)
        states.append((done.hex(),) + _server_state(server))
    assert states[0] == states[1]

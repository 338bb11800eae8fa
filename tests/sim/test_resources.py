"""Unit tests for the FIFO resource servers (CPU / NIC)."""

import pytest

from repro.sim.events import Simulator
from repro.sim.resources import CpuServer, FifoServer, LinkServer


def test_jobs_serve_fifo_and_accumulate():
    sim = Simulator()
    server = FifoServer(sim, rate=1.0)
    done = []
    server.submit(1.0, done.append, "a")
    server.submit(2.0, done.append, "b")
    sim.run_until_idle()
    assert done == ["a", "b"]
    assert sim.now == 3.0


def test_rate_divides_service_time():
    sim = Simulator()
    server = FifoServer(sim, rate=2.0)
    completion = server.submit(1.0)
    assert completion == pytest.approx(0.5)


def test_idle_server_starts_at_now():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run_until_idle()
    server = FifoServer(sim)
    assert server.submit(1.0) == pytest.approx(6.0)


def test_backlog_reflects_queued_work():
    sim = Simulator()
    server = FifoServer(sim)
    assert server.backlog == 0.0
    server.submit(2.0)
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
    server.submit(1.0, lambda: None)
    sim.run_until_idle()
    assert server.utilization(2.0) == pytest.approx(0.5)
    assert server.jobs_served == 1


def test_negative_service_time_rejected():
    sim = Simulator()
    server = FifoServer(sim)
    with pytest.raises(ValueError):
        server.submit(-1.0)


def test_invalid_rate_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        FifoServer(sim, rate=0.0)


def test_cpu_server_pools_cores():
    sim = Simulator()
    cpu = CpuServer(sim, cores=2.0)
    assert cpu.submit(1.0) == pytest.approx(0.5)


def test_link_server_transmit_time():
    sim = Simulator()
    link = LinkServer(sim, bandwidth=1000.0)
    assert link.transmit(500) == pytest.approx(0.5)


def test_link_serializes_messages_back_to_back():
    sim = Simulator()
    link = LinkServer(sim, bandwidth=100.0)
    first = link.transmit(100)
    second = link.transmit(100)
    assert first == pytest.approx(1.0)
    assert second == pytest.approx(2.0)


def test_link_invalid_bandwidth_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        LinkServer(sim, bandwidth=0)

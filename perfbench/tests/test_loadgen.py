"""Load-generator accounting: due-time latency, lateness, the window."""

import asyncio
from types import SimpleNamespace

import pytest

from perfbench import live
from perfbench.live import LoadGen
from repro.core.messages import ClientConfirm
from repro.workloads import UniformWorkload, uniform_genesis


class FakeTransport:
    """Records sends; optionally confirms each one on the next loop turn."""

    def __init__(self, confirm: bool = False) -> None:
        self.confirm = confirm
        self.handlers = {}
        self.sent = []
        self.most_pending_at_send = 0
        self.loadgen = None

    def on(self, message_type, handler):
        self.handlers[message_type] = handler

    def send(self, dst, message):
        self.sent.append((dst, message))
        self.most_pending_at_send = max(
            self.most_pending_at_send, len(self.loadgen.pending)
        )
        if self.confirm:
            asyncio.get_running_loop().call_soon(
                self.handlers[ClientConfirm], dst,
                ClientConfirm(message.payment, 0.0),
            )


def make_loadgen(confirm: bool = False):
    genesis = uniform_genesis(16)
    clients = sorted(genesis, key=repr)
    transport = FakeTransport(confirm)
    cluster = SimpleNamespace(
        loadgen_transport=transport,
        rep_map={client: index % 4 for index, client in enumerate(clients)},
        genesis=genesis,
    )
    loadgen = LoadGen(cluster, UniformWorkload(clients, seed=3))
    transport.loadgen = loadgen
    return loadgen, transport


def test_latency_runs_from_due_time_not_send_time(monkeypatch):
    loadgen, transport = make_loadgen()
    now = {"t": 100.0}
    monkeypatch.setattr(live, "clock", lambda: now["t"])
    payment = loadgen.next_payment()
    # Due at t=99.990 but the generator only got to it at t=100.000.
    loadgen.submit(payment, due=99.990)
    now["t"] = 100.040
    loadgen.on_confirm(0, ClientConfirm(payment, 0.0))
    assert loadgen.latencies_due_in(99.0, 101.0) == [pytest.approx(0.050)]
    # The window selects on the due time.
    assert loadgen.latencies_due_in(100.0, 101.0) == []
    assert loadgen.confirmed == 1 and not loadgen.pending


def test_duplicate_confirms_are_counted_not_sampled():
    loadgen, transport = make_loadgen()
    payment = loadgen.next_payment()
    loadgen.submit(payment, due=live.clock())
    loadgen.on_confirm(0, ClientConfirm(payment, 0.0))
    loadgen.on_confirm(0, ClientConfirm(payment, 0.0))
    assert (loadgen.confirmed, loadgen.duplicate_confirms) == (1, 1)
    assert len(loadgen.done) == 1


def test_sequence_numbers_are_dense_per_spender():
    loadgen, transport = make_loadgen()
    seen = {}
    for _ in range(64):
        payment = loadgen.next_payment()
        assert payment.seq == seen.get(payment.spender, 0) + 1
        seen[payment.spender] = payment.seq


def test_open_loop_lateness_accounting():
    loadgen, transport = make_loadgen()
    rate, seconds = 500.0, 0.3

    began, ended = asyncio.run(loadgen.open_loop(rate, seconds))
    total = int(rate * seconds)
    assert loadgen.submitted == len(transport.sent) == total
    # One lateness entry per payment, never negative: nothing is sent
    # before it is due.
    assert len(loadgen.late) == total
    assert min(loadgen.late) >= 0.0
    # Due times are the schedule's slots, whatever the pacing did.
    dues = sorted(loadgen.pending.values())
    for index, due in enumerate(dues):
        assert due == pytest.approx(began + index / rate, abs=1e-9)
    assert ended == pytest.approx(began + seconds)
    # The pacing floor bounds the lateness the generator causes itself
    # (generous margin: a loaded CI host stalls the loop too).
    assert sorted(loadgen.late)[total // 2] < live.TICK + 0.01


def test_closed_loop_window_is_never_exceeded():
    loadgen, transport = make_loadgen(confirm=True)
    window, total = 32, 1000

    async def scenario():
        span = await loadgen.closed_loop(window, total, timeout=10.0)
        assert await loadgen.drain(timeout=5.0)
        return span

    began, ended = asyncio.run(scenario())
    assert ended > began
    assert loadgen.max_outstanding == window
    assert transport.most_pending_at_send <= window
    # Exactly the asked-for work, all of it confirmed, then no refills.
    assert loadgen.submitted == loadgen.confirmed == total
    assert loadgen.window == 0 and loadgen.closed_left == 0


def test_closed_loop_gives_up_at_its_timeout():
    loadgen, transport = make_loadgen(confirm=False)  # nothing confirms
    asyncio.run(loadgen.closed_loop(8, 100, timeout=0.05))
    assert loadgen.submitted == 8 and len(loadgen.pending) == 8
    assert loadgen.closed_left == 0


def test_reference_seconds_divide_each_interval_by_its_host_factor():
    # Four marks a second apart; the host ran at reference speed for the
    # first interval and twice as slow from the third mark on.  Each mark's
    # own kernel run (0.1 s) is not work.
    marks = [
        live.Mark(10.0, 0.0, 0, factor=1.0, kernel_s=0.1),
        live.Mark(11.0, 0.0, 100, factor=1.0, kernel_s=0.1),
        live.Mark(12.0, 0.0, 200, factor=2.0, kernel_s=0.1),
        live.Mark(13.0, 0.0, 300, factor=2.0, kernel_s=0.1),
    ]
    host, reference = live.host_and_reference_seconds(marks)
    assert host == pytest.approx(2.7)
    assert reference == pytest.approx(0.9 / 1.0 + 0.9 / 1.5 + 0.9 / 2.0)
    # Marks that did not read the host's speed count host seconds as is.
    plain = [live.Mark(0.0, 0.0, 0), live.Mark(2.0, 0.0, 50)]
    assert live.host_and_reference_seconds(plain) == (2.0, 2.0)


def test_marks_read_the_host_only_when_a_meter_is_set():
    loadgen, transport = make_loadgen()
    loadgen.mark()
    assert loadgen.marks[-1].factor == 1.0 and loadgen.marks[-1].kernel_s == 0.0
    loadgen.meter = live.HostMeter(1000)
    loadgen.mark()
    assert loadgen.marks[-1].kernel_s == loadgen.meter.samples[-1] > 0.0
    assert loadgen.marks[-1].factor == loadgen.meter.factor(loadgen.meter.samples[-1])

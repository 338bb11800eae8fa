"""Unit tests for the discrete-event simulator core."""

import pytest

from repro.sim.events import SimulationError, Simulator


def test_schedule_and_run_in_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, order.append, "late")
    sim.schedule(1.0, order.append, "early")
    sim.schedule(1.5, order.append, "middle")
    sim.run_until_idle()
    assert order == ["early", "middle", "late"]
    assert sim.now == 2.0


def test_ties_break_by_schedule_order():
    sim = Simulator()
    order = []
    for label in ("a", "b", "c"):
        sim.schedule(1.0, order.append, label)
    sim.run_until_idle()
    assert order == ["a", "b", "c"]


def test_run_until_bound_advances_clock_exactly():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, True)
    executed = sim.run(until=3.0)
    assert executed == 0
    assert fired == []
    assert sim.now == 3.0
    sim.run(until=6.0)
    assert fired == [True]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run_until_idle()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run_until_idle()


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0.5, order.append, "nested")

    sim.schedule(1.0, first)
    sim.run_until_idle()
    assert order == ["first", "nested"]
    assert sim.now == 1.5


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_max_events_limit():
    sim = Simulator()

    def loop():
        sim.schedule(0.001, loop)

    sim.schedule(0.0, loop)
    executed = sim.run(max_events=10)
    assert executed == 10


def test_event_limit_does_not_jump_the_clock_to_the_horizon():
    """Stopping on ``max_events`` leaves earlier events queued: the clock
    must stay at the last executed event, or it would run backwards."""
    sim = Simulator()
    fired = []
    sim.schedule_at(2.0, fired.append, 2.0)
    sim.schedule_at(3.0, fired.append, 3.0)
    assert sim.run(until=5.0, max_events=1) == 1
    assert sim.now == 2.0
    sim.call_at(2.5, fired.append, 2.5)  # still the future
    clock = []
    sim.schedule_at(4.0, lambda: clock.append(sim.now))
    assert sim.run(until=5.0) == 3
    assert fired == [2.0, 2.5, 3.0]
    assert clock == [4.0]
    assert sim.now == 5.0  # stopped on the horizon: advanced exactly


def test_run_until_idle_raises_on_runaway():
    sim = Simulator()

    def loop():
        sim.schedule(0.001, loop)

    sim.schedule(0.0, loop)
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=100)


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(0.0, reenter)
    sim.run_until_idle()
    assert len(errors) == 1


def test_determinism_same_schedule_same_history():
    def run_once():
        sim = Simulator()
        seen = []
        for index in range(50):
            sim.schedule(0.1 * (index % 7), seen.append, index)
        sim.run_until_idle()
        return seen

    assert run_once() == run_once()


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(0.1, lambda: None)
    sim.run_until_idle()
    assert sim.events_executed == 5


# ---------------------------------------------------------------------------
# Heap hygiene: cancelled-entry accounting and compaction
# ---------------------------------------------------------------------------

def test_pending_reports_live_vs_cancelled():
    sim = Simulator()
    events = [sim.schedule(1.0 + i, lambda: None) for i in range(10)]
    assert (sim.pending, sim.pending_live, sim.pending_cancelled) == (10, 10, 0)
    for event in events[:4]:
        event.cancel()
    assert (sim.pending, sim.pending_live, sim.pending_cancelled) == (10, 6, 4)
    sim.run_until_idle()
    assert (sim.pending, sim.pending_live, sim.pending_cancelled) == (0, 0, 0)


def test_cancel_after_fire_keeps_counters_sane():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    event.cancel()  # too late: entry already left the queue
    assert sim.pending_cancelled == 0


def test_compaction_reclaims_dominating_cancellations():
    sim = Simulator()
    keep = [sim.schedule(100.0 + i, lambda: None) for i in range(10)]
    doomed = [sim.schedule(200.0 + i, lambda: None) for i in range(200)]
    assert sim.pending == 210
    for event in doomed:
        event.cancel()
    # Cancelled entries exceeded half the heap: the queue was compacted
    # without waiting for the far-future timestamps to be reached.
    assert sim.compactions >= 1
    assert sim.pending < 60
    assert sim.pending_live == 10
    executed = sim.run_until_idle()
    assert executed == 10
    assert keep  # silence unused warning


def test_compaction_preserves_execution_order():
    sim = Simulator()
    order = []
    events = [
        sim.schedule(1.0 + (i % 7) * 0.25, order.append, i) for i in range(300)
    ]
    for i, event in enumerate(events):
        if i % 3 != 0:
            event.cancel()
    assert sim.compactions >= 1
    sim.run_until_idle()
    # Reference: a simulator that never scheduled the cancelled events at
    # all (same times, same relative order of survivors).
    reference_sim = Simulator()
    reference_order = []
    for i in range(300):
        if i % 3 == 0:
            reference_sim.schedule(1.0 + (i % 7) * 0.25, reference_order.append, i)
    reference_sim.run_until_idle()
    assert order == reference_order


def test_compaction_during_run_is_safe():
    sim = Simulator()
    fired = []
    doomed = [sim.schedule(50.0 + i, lambda: None) for i in range(150)]

    def cancel_all():
        for event in doomed:
            event.cancel()
        fired.append("cancelled")

    sim.schedule(1.0, cancel_all)
    sim.schedule(2.0, fired.append, "after")
    sim.run_until_idle()
    assert fired == ["cancelled", "after"]
    assert sim.compactions >= 1

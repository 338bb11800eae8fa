"""Span stack, self time, and rebinding of imported functions."""

import sys
import types

import pytest

from perfbench import trace
from perfbench.trace import Tracer


@pytest.fixture
def ticking_clock(monkeypatch):
    """Every clock read advances one second: spans get exact durations."""
    state = {"now": 0.0}

    def clock():
        state["now"] += 1.0
        return state["now"]

    monkeypatch.setattr(trace, "clock", clock)
    return state


def test_self_time_is_duration_minus_direct_children(ticking_clock):
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: None)

    def middle_body():
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle_body)
    root = tracer.wrap("root", lambda: middle())
    root()
    # Clock reads: root 1, middle 2, leaf 3-4, leaf 5-6, middle 7, root 8.
    rows = tracer.aggregate()
    assert rows["leaf"] == {"count": 2, "total_s": 2.0, "self_s": 2.0}
    assert rows["middle"]["total_s"] == 5.0
    assert rows["middle"]["self_s"] == 3.0  # minus its two leaves
    assert rows["root"]["total_s"] == 7.0
    assert rows["root"]["self_s"] == 2.0  # minus middle only, not the leaves
    # Self times add up to the root's duration: nothing counted twice.
    assert sum(row["self_s"] for row in rows.values()) == rows["root"]["total_s"]
    assert list(tracer.parent) == [-1, 0, 1, 1]


def test_stack_unwinds_through_exceptions(ticking_clock):
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap("boom", boom)
    with pytest.raises(KeyError):
        wrapped()
    after = tracer.wrap("after", lambda: 1)
    assert after() == 1
    assert list(tracer.parent) == [-1, -1]
    assert tracer.end[0] > tracer.start[0]


def test_aggregate_window_selects_by_start_time(ticking_clock):
    tracer = Tracer()
    work = tracer.wrap("work", lambda: None)
    for _ in range(4):
        work()  # starts at 1, 3, 5, 7
    assert tracer.aggregate(3.0, 7.0)["work"]["count"] == 2


def test_observe_sees_result_and_can_key_the_span(ticking_clock):
    tracer = Tracer()
    seen = []

    def observe(index, args, result):
        tracer.keys[index] = args[0]
        seen.append(result)

    double = tracer.wrap("double", lambda x: x * 2, observe)
    assert double(21) == 42
    assert seen == [42] and tracer.keys == {0: 21}


def test_patch_function_rebinds_every_importer_and_uninstall_restores():
    def target():
        return "original"

    home = types.ModuleType("repro_perfbench_test_home")
    importer = types.ModuleType("repro_perfbench_test_importer")
    outsider = types.ModuleType("unrelated_perfbench_test")
    home.target = target
    importer.alias = target  # ``from home import target as alias``
    outsider.target = target
    for module in (home, importer, outsider):
        sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        rebound = tracer.patch_function(target, lambda module_name: "t")
        assert rebound == [home.__name__, importer.__name__]
        assert home.target is not target and importer.alias is not target
        assert outsider.target is target  # only ``repro*`` modules
        assert home.target() == "original" and importer.alias() == "original"
        assert tracer.aggregate()["t"]["count"] == 2
        tracer.uninstall()
        assert home.target is target and importer.alias is target
    finally:
        for module in (home, importer, outsider):
            del sys.modules[module.__name__]


def test_install_wraps_before_build_and_uninstall_restores():
    from repro.core import persistence
    from repro.transport import framing, tcp

    original = framing.encode_frame
    tracer = Tracer()
    trace.install(tracer)
    try:
        assert tcp.encode_frame is not original
        assert persistence.encode_frame is not original
        assert tcp.encode_frame.__wrapped__ is original
        tcp.encode_frame(("x",))
        persistence.encode_frame(("y",))
        assert tracer.counters["wire_frames"] == 1
        assert tracer.counters["wal_frames"] == 1
    finally:
        tracer.uninstall()
    assert tcp.encode_frame is original and persistence.encode_frame is original

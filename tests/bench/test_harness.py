"""Tests for the benchmark harness (small scales: fast, deterministic)."""

import functools
import json

import pytest

from repro.bench.peak import find_peak
from repro.bench.report import (
    format_series,
    format_table,
    kilo,
    merge_perf_report,
)
from repro.bench.runner import run_open_loop
from repro.bench.scale import current_scale
from repro.bench.systems import (
    build_astro1,
    build_astro2,
    build_bft,
    client_ids_of,
    scaled_batch_delay,
)
from repro.bench.timeline import run_timeline


class TestBuilders:
    def test_astro1_builder(self):
        system = build_astro1(4, seed=1)
        assert len(system.replicas) == 4
        assert len(client_ids_of(system)) == 16

    def test_astro2_sharded_builder(self):
        system = build_astro2(4, num_shards=2, seed=1)
        assert len(system.replicas) == 8
        assert system.directory.shard_ids == [0, 1]

    def test_bft_builder(self):
        system = build_bft(4, seed=1)
        assert len(system.replicas) == 4

    def test_scaled_batch_delay_grows(self):
        assert scaled_batch_delay(4) == pytest.approx(0.05)
        assert scaled_batch_delay(100) > scaled_batch_delay(49) > 0.05


class TestRunner:
    def test_open_loop_measures_throughput_and_latency(self):
        system = build_astro2(4, seed=2)
        result = run_open_loop(system, rate=2000, duration=1.0, warmup=0.5)
        assert result.achieved == pytest.approx(2000, rel=0.15)
        assert result.goodput_ratio > 0.8
        assert result.latency.count > 500
        assert 0 < result.latency.mean < 1.0

    def test_offered_equals_injected_rate(self):
        system = build_astro2(4, seed=2)
        result = run_open_loop(system, rate=1000, duration=1.0, warmup=0.5)
        assert result.injected == pytest.approx(1500, abs=15)


class TestPeak:
    @pytest.mark.slow
    def test_peak_found_between_bounds(self):
        factory = functools.partial(build_astro2, 4, seed=3)
        result = find_peak(
            factory, start_rate=2000, duration=0.6, warmup=0.4, refine_steps=1
        )
        # The N=4 system sustains far more than 2K and is finite.
        assert 2000 < result.peak_pps < 1_000_000
        assert len(result.probes) >= 2

    @pytest.mark.slow
    def test_walk_down_from_oversaturated_start(self):
        factory = functools.partial(build_bft, 4, seed=3)
        result = find_peak(
            factory, start_rate=400_000, duration=0.6, warmup=0.4,
            refine_steps=1,
        )
        assert result.peak_pps < 400_000

    def test_probe_cap_bounds_search_cost(self):
        factory = functools.partial(build_astro2, 4, seed=3)
        result = find_peak(
            factory, start_rate=2000, duration=0.4, warmup=0.3,
            refine_steps=3, max_probes=3, payment_budget=10_000,
        )
        assert len(result.probes) <= 3

    def test_reuse_state_matches_fresh_probe_shape(self):
        factory = functools.partial(build_astro2, 4, seed=3)
        result = find_peak(
            factory, start_rate=2000, duration=0.4, warmup=0.3,
            refine_steps=1, max_probes=4, payment_budget=10_000,
            reuse_state=True,
        )
        assert result.peak_pps > 2000
        assert len(result.probes) <= 4


class TestTimeline:
    def test_timeline_without_fault_is_steady(self):
        system = build_astro1(4, seed=4)
        result = run_timeline(
            system, num_clients=4, warmup=2.0, window=6.0, timeline=""
        )
        assert len(result.series) == 6
        assert all(v > 0 for v in result.series)
        assert result.fault_at is None

    def test_timeline_with_crash_shows_drop(self):
        system = build_astro1(4, seed=4)
        result = run_timeline(
            system,
            num_clients=4,
            warmup=2.0,
            window=8.0,
            timeline=f"crash:{system.replicas[3].node_id}@3.0",
        )
        assert result.fault_at == 5.0
        assert result.before_fault() > result.after_fault() > 0

    def test_timeline_string_schedules_what_direct_calls_did(self):
        """A ``partition``/``heal`` string is the same experiment as the
        injector calls it replaces: same fault log, same history."""
        spelled = build_astro1(4, seed=4)
        by_string = run_timeline(
            spelled, num_clients=4, warmup=1.0, window=4.0,
            timeline="partition:0,1|2,3@1.0;heal@2.5",
        )
        direct = build_astro1(4, seed=4)
        direct.faults.partition((0, 1), (2, 3), at=2.0)
        direct.faults.heal(at=3.5)
        by_calls = run_timeline(direct, num_clients=4, warmup=1.0, window=4.0)
        assert [kind for _t, kind, _what in spelled.faults.log] == [
            "partition", "heal",
        ]
        assert spelled.faults.log == direct.faults.log
        assert by_string.series == by_calls.series
        assert by_string.completed == by_calls.completed > 0
        # No quorum on either side of a 2|2 split: the window shows it.
        assert by_string.series[0] > 0.0 == by_string.series[2]
        assert (by_string.fault_at, by_calls.fault_at) == (2.0, None)

    def test_heal_ends_a_delay_as_on_the_live_backend(self):
        """``heal`` clears delays too ("every delay/drop/partition"): the
        string is the direct calls, and the slowed replica's client gets
        its throughput back in the second after the heal."""
        spelled = build_astro1(4, seed=4)
        by_string = run_timeline(
            spelled, num_clients=4, warmup=1.0, window=5.0,
            timeline="delay:2x0.2@1;heal@2",
        )
        direct = build_astro1(4, seed=4)
        direct.faults.delay_egress(2, 0.2, at=2.0)
        direct.faults.heal(at=3.0)
        by_calls = run_timeline(direct, num_clients=4, warmup=1.0, window=5.0)
        assert spelled.faults.log == direct.faults.log == [
            (2.0, "delay", (2, 0.2)), (3.0, "heal", None),
        ]
        assert by_string.series == by_calls.series
        before, delayed, *healed = by_string.series
        assert delayed < 0.8 * before
        assert all(second > 0.9 * before for second in healed)

    def test_timeline_naming_a_replica_the_system_lacks_is_refused(self):
        """As on the live CLI: ``crash:99`` on N=4 is a mistake, not a
        fault-free run split at a "fault"."""
        system = build_astro1(4, seed=4)
        with pytest.raises(ValueError, match=r"0\.\.3"):
            run_timeline(system, num_clients=4, timeline="crash:99@1")
        assert system.faults.log == [] and system.sim.now == 0.0

    @pytest.mark.parametrize("timeline", ["recover:1@1", "crash:1@1;crash:1@2"])
    def test_timeline_with_a_replica_up_or_down_twice_is_refused(self, timeline):
        """The live cluster refuses these strings before it spawns (a
        second replica 1 would fight the running one for its port): the
        simulator refuses them too, instead of logging the event."""
        system = build_astro1(4, seed=4)
        with pytest.raises(ValueError, match="replica 1 is"):
            run_timeline(system, num_clients=4, timeline=timeline)
        assert system.faults.log == [] and system.sim.now == 0.0

    def test_split_names_a_fault_that_is_not_a_timeline_event(self):
        result = run_timeline(
            build_astro1(4, seed=4), num_clients=4, warmup=1.0, window=3.0,
            split=2.0,
        )
        assert result.fault_at == 3.0

    def test_demand_follows_the_workload_knob(self, monkeypatch):
        """Genesis and demand resolve one knob: a merchant system gets
        merchant operations (every closed-loop consumer buys from a
        merchant), not a uniform stream over merchant balances."""
        from repro.workloads.merchant import is_merchant

        monkeypatch.setenv("REPRO_WORKLOAD", "merchant")
        system = build_astro1(4, seed=4)
        result = run_timeline(system, num_clients=4, warmup=0.5, window=1.5)
        assert result.completed > 0
        settled = [
            payment
            for log in system.replicas[0].state.xlogs.values()
            for payment in log
        ]
        assert len(settled) >= result.completed
        assert all(is_merchant(payment.beneficiary) for payment in settled)

    def test_summary_helpers(self):
        from repro.bench.timeline import TimelineResult

        timeline = TimelineResult(
            series=[10.0, 10.0, 0.0, 0.0, 8.0, 8.0],
            window_start=0.0,
            fault_at=2.0,
            completed=36,
        )
        assert timeline.before_fault() == pytest.approx(10.0)
        assert timeline.min_after_fault() == 0.0
        assert timeline.after_fault(settle_gap=2) == pytest.approx(8.0)


class TestReport:
    def test_kilo_formatting(self):
        assert kilo(55_000) == "55.0K"
        assert kilo(1_500) == "1.50K"
        assert kilo(334) == "334"

    def test_format_table_alignment(self):
        table = format_table(
            ["name", "value"], [["a", 1], ["long-name", 22]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5

    def test_format_series(self):
        assert format_series([1.0, 2.5], precision=1) == "[1.0, 2.5]"

    @pytest.mark.parametrize("document", ["[]", "null", '"x"'])
    def test_merge_perf_report_restarts_from_a_non_object_document(
        self, tmp_path, document
    ):
        """A readable report that is not a JSON object (a truncated or
        foreign file) restarts from ``{}`` like an unreadable one."""
        path = tmp_path / "BENCH_perf.json"
        path.write_text(document)
        assert merge_perf_report({"memory": {"rows": 1}}, str(path)) == str(path)
        assert json.loads(path.read_text()) == {"memory": {"rows": 1}}


class TestScale:
    def test_default_scale_is_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert current_scale().name == "quick"

    def test_scale_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        assert current_scale().name == "smoke"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
        assert current_scale().name == "full"

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "bogus")
        with pytest.raises(ValueError):
            current_scale()

    def test_full_scale_matches_paper_sizes(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
        scale = current_scale()
        assert scale.fig3_sizes == tuple(range(4, 101, 6))
        assert scale.robustness_small_n == 49
        assert scale.robustness_large_n == 100
        assert scale.table1_shard_size == 52

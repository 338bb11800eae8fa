"""Tests for the Fig. 3 estimation subsystem: the analytic curve, anchor
calibration, bracketed peak search, and fig3's job enumeration."""

import functools

import pytest

import repro.bench.fig3 as fig3_mod
import repro.bench.robustness as robustness_mod
from repro.bench.estimate import (
    PeakEstimate,
    analytic_capacity,
    bracket_for,
    calibrated_capacity,
    credit_amortization,
    estimate_peaks,
)
from repro.bench.fig3 import Fig3Result, run_fig3
from repro.bench.fig4 import run_fig4
from repro.bench.fig8 import run_fig8
from repro.bench.jobs import (
    exec_estimate_anchor,
    exec_find_peak,
    exec_open_loop_messages,
    exec_timeline,
)
from repro.bench.parallel import (
    ScenarioJob,
    execute,
    reset_sweep_log,
    sweep_report,
)
from repro.bench.peak import PeakResult, find_peak
from repro.bench.robustness import run_robustness_suite
from repro.bench.scale import _SCALES
from repro.bench.systems import (
    build_astro2,
    build_bft,
    credit_coalesce_window,
    scaled_batch_delay,
    validate_systems,
)
from repro.sim.metrics import LatencySummary

SYSTEMS = ("bft", "astro1", "astro2")


class TestAnalyticCapacity:
    def test_positive_everywhere(self):
        for system in SYSTEMS:
            for size in (4, 10, 31, 100):
                assert analytic_capacity(system, size) > 0

    def test_the_simulator_and_the_curve_read_one_cost_table(
        self, monkeypatch
    ):
        """A per-payment cost has one owner, ``crypto.costs``: raising it
        moves what a freshly built replica charges to settle a batch and
        the analytic capacity alike."""
        from repro.brb.batching import Batch
        from repro.core.payment import Payment
        from repro.crypto import costs

        def settle_charge():
            replica = build_astro2(4, seed=1).replicas[0]
            charged = []
            replica.charge = charged.append
            batch = Batch([Payment("x", seq, "y", 1) for seq in (1, 2, 3)])
            replica._deliver_batch(1, batch)
            return charged

        base = costs.SETTLE_PER_PAYMENT
        before = (settle_charge(), analytic_capacity("astro2", 4))
        assert before[0] == [3 * base]
        monkeypatch.setattr(costs, "SETTLE_PER_PAYMENT", 2 * base)
        after = (settle_charge(), analytic_capacity("astro2", 4))
        assert after[0] == [3 * (2 * base)]
        assert after[1] < before[1]

    def test_paper_ordering_at_scale(self):
        # §VI-C1: broadcast beats consensus, Astro II beats Astro I.
        for size in (10, 31, 100):
            bft = analytic_capacity("bft", size)
            astro1 = analytic_capacity("astro1", size)
            astro2 = analytic_capacity("astro2", size)
            assert astro2 > astro1 > bft

    def test_decay_with_size(self):
        for system in SYSTEMS:
            assert analytic_capacity(system, 4) > analytic_capacity(system, 100)

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            analytic_capacity("raft", 4)


class TestCreditCoalesceEstimation:
    def test_amortization_one_when_off(self):
        assert credit_amortization(32, 0.0) == 1.0
        assert credit_amortization(32, -1.0) == 1.0

    def test_amortization_grows_with_window_and_size(self):
        assert credit_amortization(32, 0.4) > credit_amortization(32, 0.1) >= 1.0
        window = 0.2
        assert credit_amortization(64, window) > credit_amortization(8, window)

    def test_coalescing_raises_astro2_capacity(self):
        for size in (10, 32, 100):
            off = analytic_capacity("astro2", size, credit_coalesce_delay=0.0)
            on = analytic_capacity(
                "astro2", size, credit_coalesce_delay=scaled_batch_delay(size)
            )
            assert on > off
        # Other systems have no CREDIT path: the knob is a no-op.
        for system in ("astro1", "bft"):
            assert analytic_capacity(
                system, 32, credit_coalesce_delay=1.0
            ) == analytic_capacity(system, 32, credit_coalesce_delay=0.0)

    def test_window_is_a_function_of_n_alone(self, monkeypatch):
        """Per-delivery CREDITs below CREDIT_COALESCE_AUTO_MIN_N, one
        batch window once the CREDIT fan-in dominates — and nothing in
        the environment moves it."""
        from repro.bench.systems import CREDIT_COALESCE_AUTO_MIN_N

        threshold = CREDIT_COALESCE_AUTO_MIN_N
        for stale_knob in (None, "off", "auto", "0.25"):
            if stale_knob is not None:
                monkeypatch.setenv("REPRO_CREDIT_COALESCE", stale_knob)
            assert credit_coalesce_window(32) == 0.0
            assert credit_coalesce_window(threshold - 1) == 0.0
            assert credit_coalesce_window(threshold) == scaled_batch_delay(
                threshold
            )
            assert credit_coalesce_window(100) == scaled_batch_delay(100)

    def test_unspecified_capacity_follows_builders(self):
        for size in (32, 100):
            assert analytic_capacity("astro2", size) == analytic_capacity(
                "astro2", size,
                credit_coalesce_delay=credit_coalesce_window(size),
            )
        assert analytic_capacity("astro2", 100) > analytic_capacity(
            "astro2", 100, credit_coalesce_delay=0.0
        )

    def test_builder_env_and_explicit_precedence(self, monkeypatch):
        # The environment no longer reaches the builder: N decides.
        monkeypatch.setenv("REPRO_CREDIT_COALESCE", "auto")
        system = build_astro2(4, seed=1)
        assert system.config.credit_coalesce_delay == 0.0
        # An explicit parameter beats the N-rule.
        window = scaled_batch_delay(4)
        system = build_astro2(4, seed=1, credit_coalesce_delay=window)
        assert system.config.credit_coalesce_delay == window
        # An explicit config beats both.
        from repro.core.config import AstroConfig

        config = AstroConfig(num_replicas=4, credit_coalesce_delay=0.07)
        system = build_astro2(4, seed=1, config=config)
        assert system.config.credit_coalesce_delay == 0.07


class TestCalibration:
    def test_no_anchors_is_analytic(self):
        assert calibrated_capacity("astro2", 22) == analytic_capacity("astro2", 22)

    def test_single_anchor_rescales_uniformly(self):
        measured = 2.0 * analytic_capacity("astro2", 4)
        for size in (4, 22, 100):
            assert calibrated_capacity(
                "astro2", size, {4: measured}
            ) == pytest.approx(2.0 * analytic_capacity("astro2", size))

    def test_two_anchors_pass_through_measurements(self):
        anchors = {
            4: 0.5 * analytic_capacity("astro1", 4),
            10: 0.8 * analytic_capacity("astro1", 10),
        }
        for size, measured in anchors.items():
            assert calibrated_capacity("astro1", size, anchors) == pytest.approx(
                measured
            )

    def test_extrapolated_correction_is_clamped(self):
        # A wildly sloped pair of anchors must not run away at large N.
        anchors = {4: analytic_capacity("bft", 4), 10: 4 * analytic_capacity("bft", 10)}
        capacity = calibrated_capacity("bft", 100, anchors)
        # t clamps at 2.0 -> correction at most 1 * (4/1)^2 = 16x.
        assert capacity <= 16.0 * analytic_capacity("bft", 100) * 1.001

    def test_nonpositive_anchor_ignored(self):
        assert calibrated_capacity("bft", 10, {4: 0.0}) == analytic_capacity("bft", 10)


class TestBrackets:
    def test_bracket_surrounds_capacity(self):
        low, high = bracket_for(10_000.0)
        assert low < 10_000.0 < high

    def test_bracket_floor(self):
        low, high = bracket_for(10.0)
        assert low == 50.0 and high == 100.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bracket_for(0.0)

    def test_estimate_peaks_covers_every_size(self):
        estimates = estimate_peaks("astro2", (4, 10, 22))
        assert sorted(estimates) == [4, 10, 22]
        for estimate in estimates.values():
            assert isinstance(estimate, PeakEstimate)
            assert estimate.bracket[0] < estimate.capacity_pps < estimate.bracket[1]


class TestPerCellTimings:
    def test_cells_recorded_with_tags(self):
        reset_sweep_log()
        units = [
            ScenarioJob(
                fn=exec_open_loop_messages,
                params=dict(system="astro2", size=4, rate=400.0,
                            duration=0.4, warmup=0.3),
                seed=0,
                tag=("astro2", 4),
            )
        ]
        execute(units, jobs=1, label="cell-timing-test")
        entry = sweep_report()[-1]
        assert entry["label"] == "cell-timing-test"
        cells = entry["cells"]
        assert len(cells) == 1
        assert cells[0]["tag"] == repr(("astro2", 4))
        assert cells[0]["seconds"] > 0


def _fake_execute_factory(calls):
    """Stand-in backend: records every execute() call, fabricates
    result shapes per job function."""

    def fake_execute(units, jobs=None, label=None):
        units = list(units)
        calls.append(dict(label=label, units=units, jobs=jobs))
        results = []
        for unit in units:
            if unit.fn is exec_estimate_anchor:
                results.append({
                    "capacity_pps": 10_000.0, "offered": 2_500.0,
                    "achieved": 2_500.0, "utilization": 0.25,
                })
            elif unit.fn is exec_find_peak:
                results.append(
                    PeakResult(unit.params["bracket"][0],
                               LatencySummary.empty(), [None] * 3)
                )
            elif unit.fn is exec_timeline:
                results.append(f"timeline:{unit.tag}")
            else:  # pragma: no cover - defensive
                raise AssertionError(f"unexpected fn {unit.fn}")
        return results

    return fake_execute


class TestFig3Enumeration:
    def test_one_job_per_cell(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fig3_mod, "execute", _fake_execute_factory(calls))
        sizes, systems = (4, 7, 10), ("bft", "astro2")
        result = run_fig3(
            sizes=sizes, systems=systems, scale=_SCALES["smoke"], seed=3,
        )
        assert len(calls) == 2  # anchors, then the cell sweep
        anchors, cells = calls
        # Anchor phase: up to two smallest sizes per system.
        assert len(anchors["units"]) == len(systems) * 2
        assert all(
            u.fn is exec_estimate_anchor for u in anchors["units"]
        )
        assert sorted({u.params["size"] for u in anchors["units"]}) == [4, 7]
        # The sweep proper: exactly len(sizes) x len(systems) independent
        # jobs, every one a bracketed cold-start cell.
        assert len(cells["units"]) == len(sizes) * len(systems)
        assert all(isinstance(u, ScenarioJob) for u in cells["units"])
        assert all(u.fn is exec_find_peak for u in cells["units"])
        assert {u.tag for u in cells["units"]} == {
            (name, size) for name in systems for size in sizes
        }
        for unit in cells["units"]:
            low, high = unit.params["bracket"]
            assert 0 < low < high
            assert unit.seed == 3
        # Assembly: per-system series in size order, probe accounting on.
        assert list(result.peaks) == list(systems)
        assert result.sizes == list(sizes)
        assert result.anchor_probes == len(anchors["units"])
        assert result.probe_counts["bft"] == [3, 3, 3]
        assert result.total_probes == 4 + 18


class TestSystemsValidation:
    def test_validate_systems_passes_good_input(self):
        assert validate_systems(("bft", "astro2")) == ["bft", "astro2"]

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            validate_systems(("astro2", "bft", "astro2"))

    def test_unknown_named_with_allowed_list(self):
        with pytest.raises(ValueError) as excinfo:
            validate_systems(("bft", "hotstuff"))
        message = str(excinfo.value)
        assert "hotstuff" in message
        for name in SYSTEMS:
            assert name in message

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            validate_systems(())

    def test_run_fig3_guards_systems(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_fig3(systems=("bft", "bft"), scale=_SCALES["smoke"])
        with pytest.raises(ValueError, match="unknown system"):
            run_fig3(systems=("tendermint",), scale=_SCALES["smoke"])

    def test_run_fig4_guards_systems(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_fig4(systems=("astro1", "astro1"), scale=_SCALES["smoke"])
        with pytest.raises(ValueError, match="unknown system"):
            run_fig4(systems=("paxos",), scale=_SCALES["smoke"])

    def test_run_fig8_guards_sizes(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            run_fig8(sizes=(10, 4), scale=_SCALES["smoke"])
        with pytest.raises(ValueError, match=">= 2"):
            run_fig8(sizes=(1, 4), scale=_SCALES["smoke"])


class TestFindPeakBracket:
    def test_bracket_probes_hints_first(self):
        factory = functools.partial(build_astro2, 4, seed=3)
        result = find_peak(
            factory, bracket=(2_000.0, 400_000.0), duration=0.4, warmup=0.3,
            refine_steps=1, payment_budget=6_000, max_probes=4,
        )
        assert result.probes[0].offered == pytest.approx(2_000.0)
        assert result.probes[1].offered == pytest.approx(400_000.0)
        # N=4 Astro II sits inside this bracket (the reported peak is a
        # measured rate, so allow measurement fuzz at the low edge).
        assert 2_000.0 * 0.9 <= result.peak_pps < 400_000.0

    def test_bracket_too_low_resumes_doubling(self):
        factory = functools.partial(build_astro2, 4, seed=3)
        result = find_peak(
            factory, bracket=(1_000.0, 2_000.0), duration=0.4, warmup=0.3,
            refine_steps=0, payment_budget=6_000, max_probes=4,
        )
        # Both hints pass; the search doubles onward from 2x the high hint.
        assert result.probes[2].offered == pytest.approx(4_000.0)
        assert result.peak_pps >= 2_000.0

    def test_bracket_too_high_walks_down(self):
        factory = functools.partial(build_bft, 4, seed=3)
        result = find_peak(
            factory, bracket=(400_000.0, 800_000.0), duration=0.4, warmup=0.3,
            refine_steps=1, payment_budget=6_000, max_probes=5,
        )
        assert result.probes[0].offered == pytest.approx(400_000.0)
        # The failing low hint halves, exactly like a cold walk-down.
        assert result.probes[1].offered == pytest.approx(200_000.0)
        assert result.peak_pps < 400_000.0

    def test_invalid_bracket_rejected(self):
        factory = functools.partial(build_astro2, 4, seed=3)
        for bad in ((0.0, 10.0), (10.0, 10.0), (20.0, 10.0)):
            with pytest.raises(ValueError, match="bracket"):
                find_peak(factory, bracket=bad, max_probes=1)


class TestPlateauFallback:
    def test_reports_best_failing_probe_not_last(self):
        factory = functools.partial(build_bft, 4, seed=3)
        result = find_peak(
            factory, start_rate=800_000.0, duration=0.4, warmup=0.3,
            max_probes=2, payment_budget=6_000, reuse_state=True,
        )
        # Both probes fail (start far beyond capacity, budget exhausted
        # before the walk-down reaches a passing rate).
        assert result.peak_probe_index is not None
        winner = result.probes[result.peak_probe_index]
        assert result.peak_pps == winner.achieved
        assert result.peak_pps == max(p.achieved for p in result.probes)

    def test_passing_search_records_winning_probe(self):
        factory = functools.partial(build_astro2, 4, seed=3)
        result = find_peak(
            factory, start_rate=2_000.0, duration=0.4, warmup=0.3,
            refine_steps=1, payment_budget=6_000, max_probes=4,
        )
        assert result.peak_probe_index is not None
        assert (
            result.probes[result.peak_probe_index].achieved == result.peak_pps
        )


class TestRobustnessSuite:
    def test_single_pooled_schedule(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            robustness_mod, "execute", _fake_execute_factory(calls)
        )
        fig5, fig6, fig7 = run_robustness_suite(scale=_SCALES["smoke"], seed=1)
        # One execute call holding every fault timeline of all three
        # figures: 3 (Fig. 5) + 4 (Fig. 6) + 4 (Fig. 7).
        assert len(calls) == 1
        assert len(calls[0]["units"]) == 11
        assert all(u.fn is exec_timeline for u in calls[0]["units"])
        assert list(fig5.timelines) == [
            "Consensus-Leader", "Consensus-Random", "Broadcast-Random"
        ]
        assert len(fig6.timelines) == 4
        assert len(fig7.timelines) == 4
        assert fig7.size == _SCALES["smoke"].robustness_large_n
        # Reassembly kept figure/curve pairing intact.
        assert fig6.timelines["Broadcast-Random"] == "timeline:Broadcast-Random"


    def test_fault_strings_name_the_victims_the_systems_have(self, monkeypatch):
        """Each curve's fault is spelled at enumeration, without a built
        system: the string must parse to the replica a built one has at
        that position — the leader, or the last representative of an
        active client — at the window's first quarter."""
        from repro.bench.jobs import _build_timeline_system
        from repro.transport.chaos import parse_timeline

        calls = []
        monkeypatch.setattr(
            robustness_mod, "execute", _fake_execute_factory(calls)
        )
        scale = _SCALES["smoke"]
        run_robustness_suite(scale=scale, seed=1)
        scenarios = (
            robustness_mod._FIG5_SCENARIOS
            + robustness_mod._FIG6_SCENARIOS
            + robustness_mod._FIG7_SCENARIOS
        )
        assert len(scenarios) == len(calls[0]["units"])
        for (_name, _system, _variant, fault), unit in zip(
            scenarios, calls[0]["units"]
        ):
            params = unit.params
            (event,) = parse_timeline(params["timeline"])
            built = _build_timeline_system(
                params["system"], params["variant"], params["size"], unit.seed
            )
            active = min(params["num_clients"], len(built.replicas))
            victim = built.replicas[
                0 if "{leader}" in fault else active - 1
            ].node_id
            assert event.at == scale.robustness_window / 4
            assert event.action == fault.split(":")[0]
            assert event.args == (
                (victim,) if event.action == "crash"
                else (victim, robustness_mod.ASYNC_DELAY)
            )


    def test_fault_strings_pass_the_replica_id_check_at_every_scale(
        self, monkeypatch
    ):
        """``run_timeline`` refuses a replica id ≥ N; no scale's Figs. 5–7
        name one."""
        from repro.transport.chaos import check_replica_ids, parse_timeline

        calls = []
        monkeypatch.setattr(
            robustness_mod, "execute", _fake_execute_factory(calls)
        )
        for scale in _SCALES.values():
            run_robustness_suite(scale=scale)
        assert len(calls) == len(_SCALES)
        for call in calls:
            for unit in call["units"]:
                check_replica_ids(
                    parse_timeline(unit.params["timeline"]),
                    unit.params["size"],
                )


class TestFig3ResultProbeAccounting:
    def test_total_probes_counts_anchors_and_cells(self):
        result = Fig3Result(
            sizes=[4, 10],
            peaks={"bft": [1.0, 2.0]},
            probe_counts={"bft": [5, 4]},
            anchor_probes=2,
        )
        assert result.total_probes == 11

    def test_table_still_renders_without_probe_counts(self):
        result = Fig3Result(sizes=[4], peaks={"astro2": [100.0]})
        assert "Astro II" in result.table()

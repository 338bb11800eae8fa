"""Percentile, spread and verdict arithmetic."""

import statistics

import pytest

from perfbench.compare import compare, verdict
from perfbench.run import count_mismatches
from perfbench.stats import percentile, quartiles, spread


def test_percentile_is_nearest_rank():
    values = list(range(1, 21))  # 1..20
    assert percentile(values, 0.50) == 10
    # 0.95 * 20 is 19.000000000000004 in floats; the rank is still 19.
    assert percentile(values, 0.95) == 19
    assert percentile(values, 1.0) == 20
    assert percentile(values, 0.0) == 1
    assert percentile([7.5], 0.99) == 7.5


def test_percentile_never_interpolates_and_ignores_order():
    values = [50.0, 10.0, 40.0, 20.0, 30.0]
    for fraction in (0.1, 0.33, 0.5, 0.9):
        assert percentile(values, fraction) in values
    assert percentile(values, 0.5) == 30.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_spread_matches_the_drivers_formula():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.3]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert spread(values) == pytest.approx((q3 - q1) / q2)


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, steady, "lower", 0.1)[0] == "within-bound"
    assert verdict(steady, [v * 1.2 for v in steady], "lower", 0.1)[0] == "worse"
    assert verdict(steady, [v * 1.2 for v in steady], "higher", 0.1)[0] == "better"
    assert verdict(steady, [v * 0.8 for v in steady], "higher", 0.1)[0] == "worse"
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0]
    assert verdict(steady, noisy, "lower", 0.1)[0] == "unresolved"
    # setup_s: the spread is not gated, the median still is.
    slower = [v * 1.5 for v in noisy]
    assert verdict(steady, slower, "lower", 0.1, spread_gated=False)[0] == "worse"
    assert verdict(steady, noisy, "lower", 0.1, spread_gated=False)[0] == "within-bound"


def _record(seed, pps, counts=None):
    metrics = {"pps": {"value": pps, "unit": "1/s"}}
    return {"seed": seed, "metrics": metrics, "info": {"counts": counts} if counts else {}}


def test_count_mismatches_compare_runs_of_one_seed():
    runs = {
        "sim": [_record(1, 1.0, {"events": 5}), _record(1, 1.1, {"events": 5}),
                _record(2, 1.0, {"events": 7})],
        "live": [_record(1, 1.0), _record(1, 2.0)],  # no counts: not compared
    }
    assert count_mismatches(runs) == []
    runs["sim"].append(_record(2, 1.0, {"events": 8}))
    (only,) = count_mismatches(runs)
    assert "sim seed 2" in only


def test_compare_does_not_gate_goodput_at_a_fixed_rate(capsys):
    benchmark = {
        "workloads": [{"name": "live_uniform"}, {"name": "live_merchant_wal"}],
        "end_to_end": [{"name": "pps", "unit": "1/s", "better": "higher", "bound": 0.25}],
        "per_layer": [],
    }
    base = {"label": "a", "runs": {w: [_record(s, 150.0 + s) for s in range(5)]
                                   for w in ("live_uniform", "live_merchant_wal")}}
    halved = {"label": "b", "runs": {w: [_record(s, 75.0 + s) for s in range(5)]
                                     for w in ("live_uniform", "live_merchant_wal")}}
    assert compare(base, base, benchmark) == 0
    # Halving pps is `worse` where it is a capacity, `fixed-rate` where
    # it is the offered rate: exactly one failure.
    assert compare(base, halved, benchmark) == 1
    out = capsys.readouterr().out
    assert out.count("worse (n=") == 1 and out.count("fixed-rate (n=") == 2

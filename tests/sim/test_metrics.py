"""Unit tests for measurement utilities."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.metrics import LatencyRecorder, ThroughputMeter


class TestLatencyRecorder:
    def test_summary_of_known_samples(self):
        recorder = LatencyRecorder()
        for value in (0.1, 0.2, 0.3, 0.4):
            recorder.record_value(value)
        summary = recorder.summary()
        assert summary.count == 4
        assert summary.mean == pytest.approx(0.25)
        assert summary.max == pytest.approx(0.4)
        assert summary.p50 == pytest.approx(0.25)

    def test_window_filters_on_completion_time(self):
        recorder = LatencyRecorder(window_start=1.0, window_end=2.0)
        recorder.record(0.5, 0.9)   # completes before the window
        recorder.record(0.9, 1.5)   # inside
        recorder.record(1.9, 2.5)   # after
        assert recorder.count == 1
        assert recorder.summary().mean == pytest.approx(0.6)

    def test_empty_summary_is_nan(self):
        summary = LatencyRecorder().summary()
        assert summary.count == 0
        assert math.isnan(summary.mean)

    def test_reset(self):
        recorder = LatencyRecorder()
        recorder.record_value(0.1)
        recorder.reset()
        assert recorder.count == 0

    def test_as_dict_round_trip(self):
        recorder = LatencyRecorder()
        recorder.record_value(0.2)
        data = recorder.summary().as_dict()
        assert data["count"] == 1
        assert data["p95"] == pytest.approx(0.2)

    @given(st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=200))
    def test_percentiles_ordered(self, samples):
        recorder = LatencyRecorder()
        for sample in samples:
            recorder.record_value(sample)
        summary = recorder.summary()
        assert summary.p50 <= summary.p95 <= summary.p99 <= summary.max
        epsilon = 1e-9
        assert min(samples) - epsilon <= summary.mean <= max(samples) + epsilon


class TestThroughputMeter:
    def test_series_counts_per_bucket(self):
        meter = ThroughputMeter(bucket_width=1.0)
        for at in (0.1, 0.5, 1.2, 2.9):
            meter.record(at)
        assert meter.series(0.0, 3.0) == [2.0, 1.0, 1.0]

    def test_rate_is_unbiased_for_unaligned_windows(self):
        meter = ThroughputMeter(bucket_width=0.25)
        # 100 completions/sec, uniformly.
        for index in range(300):
            meter.record(index / 100.0)
        assert meter.rate(0.8, 1.8) == pytest.approx(100.0, rel=0.05)

    def test_rate_empty_window(self):
        meter = ThroughputMeter()
        assert meter.rate(5.0, 5.0) == 0.0

    def test_rate_sub_bucket_window_not_fake_zero(self):
        """Regression: a window narrower than one aligned bucket used to
        return exactly 0.0 — which a tightly shrunk peak-search probe
        window misreads as 'zero achieved', i.e. fake saturation."""
        meter = ThroughputMeter(bucket_width=0.25)
        # 100 completions/sec, uniformly.
        for index in range(100):
            meter.record(index / 100.0)
        # [0.30, 0.45) holds no fully aligned 0.25s bucket.  Overlap
        # weighting makes the fallback exact for uniform traffic.
        assert meter.rate(0.30, 0.45) == pytest.approx(100.0)
        # A window shrunk far below the bucket width must not inflate the
        # reading (whole-bucket counting would report rate/width here).
        assert meter.rate(0.30, 0.32) == pytest.approx(100.0)

    def test_rate_sub_bucket_window_spanning_two_buckets(self):
        meter = ThroughputMeter(bucket_width=1.0)
        meter.record(0.9, count=3)
        meter.record(1.1, count=5)
        # [0.8, 1.2) spans two buckets, containing neither fully: each
        # edge bucket contributes its overlap fraction (0.2 of each).
        assert meter.rate(0.8, 1.2) == pytest.approx(
            (3 * 0.2 + 5 * 0.2) / 0.4
        )

    def test_rate_sub_bucket_empty_traffic_still_zero(self):
        meter = ThroughputMeter(bucket_width=1.0)
        assert meter.rate(0.2, 0.4) == 0.0

    def test_count_between(self):
        meter = ThroughputMeter(bucket_width=1.0)
        meter.record(0.5, count=3)
        meter.record(1.5, count=2)
        assert meter.count_between(0.0, 1.0) == 3
        assert meter.count_between(0.0, 2.0) == 5

    def test_total(self):
        meter = ThroughputMeter()
        meter.record(0.1)
        meter.record(0.2, count=4)
        assert meter.total == 5

    def test_invalid_bucket_width(self):
        with pytest.raises(ValueError):
            ThroughputMeter(bucket_width=0.0)

    def test_reset(self):
        meter = ThroughputMeter()
        meter.record(1.0)
        meter.reset()
        assert meter.total == 0
        assert meter.series(0.0, 2.0) == [0.0, 0.0]

    @given(
        st.lists(st.floats(min_value=0.0, max_value=9.99), min_size=1, max_size=300)
    )
    def test_series_sum_equals_count(self, times):
        meter = ThroughputMeter(bucket_width=1.0)
        for at in times:
            meter.record(at)
        assert sum(meter.series(0.0, 10.0)) == pytest.approx(len(times))

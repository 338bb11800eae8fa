"""Unit tests for latency models."""

import pytest

from repro.sim.latency import (
    EUROPE_REGIONS,
    ConstantLatency,
    UniformLatency,
    europe_wan,
)


def test_constant_latency():
    model = ConstantLatency(0.02)
    assert model.sample(0, 1) == 0.02
    assert model.expected(3, 7) == 0.02


def test_constant_rejects_negative():
    with pytest.raises(ValueError):
        ConstantLatency(-1.0)


def test_uniform_latency_within_bounds():
    model = UniformLatency(0.01, 0.03, seed=1)
    for _ in range(100):
        sample = model.sample(0, 1)
        assert 0.01 <= sample <= 0.03
    assert model.expected(0, 1) == pytest.approx(0.02)


def test_uniform_rejects_bad_range():
    with pytest.raises(ValueError):
        UniformLatency(0.05, 0.01)


def test_uniform_deterministic_with_seed():
    a = UniformLatency(0.01, 0.03, seed=7)
    b = UniformLatency(0.01, 0.03, seed=7)
    assert [a.sample(0, 1) for _ in range(10)] == [b.sample(0, 1) for _ in range(10)]


def test_region_intra_vs_inter():
    model = europe_wan(8, seed=3, jitter=0.0)
    intra = []
    inter = []
    for a in range(8):
        for b in range(8):
            if a == b:
                continue
            delay = model.sample(a, b)
            if model.region_of(a) == model.region_of(b):
                intra.append(delay)
            else:
                inter.append(delay)
    assert intra and inter
    assert max(intra) < min(inter)


def test_region_symmetry_without_jitter():
    model = europe_wan(8, seed=3, jitter=0.0)
    for a in range(8):
        for b in range(8):
            assert model.sample(a, b) == model.sample(b, a)


def test_europe_wan_rtt_close_to_paper():
    """Paper §VI-B: average inter-region RTT around 20 ms."""
    model = europe_wan(16, seed=1, jitter=0.0)
    inter = [
        2 * model.sample(a, b)
        for a in range(16)
        for b in range(16)
        if a != b and model.region_of(a) != model.region_of(b)
    ]
    average_rtt = sum(inter) / len(inter)
    assert 0.008 <= average_rtt <= 0.030


def test_jitter_stays_within_fraction():
    model = europe_wan(8, seed=2, jitter=0.1)
    for _ in range(200):
        base = model.base_delay(0, 1)
        sample = model.sample(0, 1)
        assert 0.9 * base <= sample <= 1.1 * base


def test_all_four_regions_used():
    model = europe_wan(12, seed=4)
    used = {model.region_of(i) for i in range(12)}
    assert used == set(EUROPE_REGIONS)


# ---------------------------------------------------------------------------
# Per-pair jitter streams (what the benchmark builders sample from)
# ---------------------------------------------------------------------------

def test_pair_streams_independent_of_interleaving():
    """A pair's n-th draw must not depend on other pairs' sampling order."""
    a = europe_wan(8, seed=5, pair_streams=True)
    b = europe_wan(8, seed=5, pair_streams=True)
    # a: sample pair (0, 1) five times straight.
    direct = [a.sample(0, 1) for _ in range(5)]
    # b: interleave with heavy traffic on other pairs.
    interleaved = []
    for round_index in range(5):
        for src in range(8):
            for dst in range(8):
                if src != dst and (src, dst) != (0, 1):
                    b.sample(src, dst)
        interleaved.append(b.sample(0, 1))
    assert direct == interleaved


def test_pair_streams_differ_across_pairs_and_seeds():
    wan = europe_wan(8, seed=5, pair_streams=True)
    other_seed = europe_wan(8, seed=6, pair_streams=True)
    assert wan.sample(0, 1) != wan.sample(1, 0)
    assert wan.sample(0, 2) != other_seed.sample(0, 2)

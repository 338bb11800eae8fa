"""Unit tests for latency models."""

import random

import pytest

from repro.sim.latency import (
    EUROPE_REGIONS,
    ConstantLatency,
    UniformLatency,
    _PairStreams,
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


# ---------------------------------------------------------------------------
# delays(src, dsts) == one sample per destination, bit for bit
# ---------------------------------------------------------------------------

_MODELS = {
    "constant": lambda: ConstantLatency(0.0123),
    "uniform": lambda: UniformLatency(0.001, 0.03, seed=4),
    "uniform-pairs": lambda: UniformLatency(0.001, 0.03, seed=4, pair_streams=True),
    "region": lambda: europe_wan(9, seed=8),
    "region-pairs": lambda: europe_wan(9, seed=8, pair_streams=True),
    "region-no-jitter": lambda: europe_wan(9, seed=8, jitter=0.0),
    "region-pairs-no-jitter": lambda: europe_wan(
        9, seed=8, jitter=0.0, pair_streams=True
    ),
}


@pytest.mark.parametrize("name", sorted(_MODELS))
def test_delays_equal_one_sample_per_destination(name):
    drawn, sampled = _MODELS[name](), _MODELS[name]()
    draws, samples = [], []
    for round_index in range(4):
        for src in range(9):
            dsts = [(src + k) % 9 for k in range(1, 9 - round_index % 3)]
            draws += drawn.delays(src, dsts)
            samples += [sampled.sample(src, dst) for dst in dsts]
            # A unicast between broadcasts draws from the same stream.
            draws.append(drawn.sample(src, (src + 1) % 9))
            samples.append(sampled.sample(src, (src + 1) % 9))
    assert [d.hex() for d in draws] == [s.hex() for s in samples]
    assert drawn.delays(0, []) == []


@pytest.mark.parametrize("pair_streams", [True, False])
def test_region_draws_are_random_uniform_on_their_stream(pair_streams):
    """Unicasts and broadcasts on a WAN draw, in order, ``base * (1 +
    Random.uniform(-j, j))`` on the pair's stream or the shared one."""
    model = europe_wan(9, seed=8, pair_streams=pair_streams)  # RNG seed 9
    pairs, shared = _PairStreams(9), random.Random(9)
    jitter = model.jitter

    def uniform(src, dst):
        if pair_streams:
            return pairs.uniform(src, dst, -jitter, jitter)
        return shared.uniform(-jitter, jitter)

    drawn, expected = [], []
    # ≈ 2,000 draws each way: a formula off in the last bit of the
    # uniform shows in about one delay in 160.
    for round_index in range(30):
        for src in range(9):
            dsts = [(src + k) % 9 for k in range(1, 9 - round_index % 3)]
            drawn += model.delays(src, dsts)
            drawn += [model.sample(src, dst) for dst in dsts]
            for dst in dsts + dsts:
                expected.append(
                    model.base_delay(src, dst) * (1.0 + uniform(src, dst))
                )
    assert [d.hex() for d in drawn] == [e.hex() for e in expected]

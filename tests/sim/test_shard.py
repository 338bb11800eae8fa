"""Unit tests for the intra-simulation sharded engine (repro.sim.shard).

The load-bearing property is byte-identity: the merged results and state
fingerprints of a sharded run must equal the serial engine's bit for bit
(same RunResult floats, same SHA-256 state fingerprints), for any shard
count.  Fresh-interpreter / hash-seed / shard-count matrix coverage lives
in tests/integration/test_determinism.py; these tests cover the engine
mechanics in-process.
"""

import pytest

from repro.bench.runner import run_open_loop
from repro.bench.systems import SYSTEM_BUILDERS
from repro.sim.latency import ConstantLatency, europe_wan
from repro.sim.shard import (
    ShardedOpenLoop,
    ShardingUnsupported,
    _ChannelClocks,
    _WorkerState,
    resolve_shards,
    shard_owner,
    state_fingerprints,
)


def _result_key(result):
    return (
        result.offered,
        result.achieved,
        result.injected,
        result.confirmed,
        result.duration,
        result.latency.count,
        result.latency.mean.hex() if result.latency.count else None,
        result.latency.p95.hex() if result.latency.count else None,
    )


def _serial_reference(system, size, seed, probes):
    built = SYSTEM_BUILDERS[system](size, seed=seed)
    results = []
    for rate, duration, warmup in probes:
        results.append(
            run_open_loop(built, rate=rate, duration=duration, warmup=warmup,
                          seed=seed)
        )
    return (
        [_result_key(result) for result in results],
        state_fingerprints(built),
        {replica.node_id: replica.settled_count for replica in built.replicas},
    )


def _sharded(system, size, seed, probes, shards):
    spec = dict(system=system, size=size, seed=seed, builder_kwargs=None)
    with ShardedOpenLoop(spec, shards=shards) as cluster:
        results = []
        for index, (rate, duration, warmup) in enumerate(probes):
            results.append(
                cluster.probe(rate=rate, duration=duration, warmup=warmup,
                              fresh=(index == 0), seed=seed)
            )
        merged = cluster.fingerprint()
    return [_result_key(result) for result in results], merged


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------


def test_resolve_shards_env(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_SHARDS", raising=False)
    assert resolve_shards() == 1
    monkeypatch.setenv("REPRO_SIM_SHARDS", "3")
    assert resolve_shards() == 3
    assert resolve_shards(2) == 2  # explicit argument wins
    monkeypatch.setenv("REPRO_SIM_SHARDS", "auto")
    assert resolve_shards() >= 1
    monkeypatch.setenv("REPRO_SIM_SHARDS", "zebra")
    with pytest.raises(ValueError):
        resolve_shards()
    with pytest.raises(ValueError):
        resolve_shards(0)


def test_resolve_shards_auto_scales_with_cpus(monkeypatch):
    """Per-channel pacing scales past one shard per WAN region (regions
    split into sub-shards), so ``auto`` follows the core count — capped
    only by the all-to-all floor-chatter ceiling."""
    import repro.bench.parallel as parallel
    from repro.sim.shard import _AUTO_SHARD_CAP

    monkeypatch.setenv("REPRO_SIM_SHARDS", "auto")
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 6)
    assert resolve_shards() == 6  # no longer capped at the region count
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 64)
    assert resolve_shards() == _AUTO_SHARD_CAP
    monkeypatch.setenv("REPRO_SIM_SHARDS", "16")  # explicit: honored
    assert resolve_shards() == 16


def test_shard_owner_partitions_evenly():
    shards = 4
    owners = [shard_owner(node, shards) for node in range(32)]
    assert set(owners) == set(range(shards))
    for shard in range(shards):
        assert owners.count(shard) == 32 // shards


def test_single_shard_rejected():
    with pytest.raises(ValueError):
        ShardedOpenLoop(dict(system="astro2", size=4, seed=0), shards=1)


def test_bft_rejected():
    with pytest.raises(ShardingUnsupported):
        ShardedOpenLoop(dict(system="bft", size=4, seed=0), shards=2)


# ---------------------------------------------------------------------------
# Channel clocks (CMB null-message pacing)
# ---------------------------------------------------------------------------


def test_channel_clock_null_message_refresh():
    """A peer's advertised floor advances its clock monotonically; stale
    floors (possible when a payload ships without a floor advance) are
    ignored rather than rewinding the horizon."""
    clocks = _ChannelClocks({1: 0.004, 2: 0.010}, start=0.0)
    assert clocks.horizon() == pytest.approx(0.004)
    assert clocks.update(1, 0.5) is True
    assert clocks.horizon() == pytest.approx(min(0.5 + 0.004, 0.0 + 0.010))
    assert clocks.update(1, 0.2) is False  # stale: no rewind
    assert clocks.clock[1] == 0.5
    assert clocks.update(2, 1.0) is True
    assert clocks.horizon() == pytest.approx(0.5 + 0.004)


def test_channel_clock_stalled_channel_pins_horizon():
    """A channel that never refreshes pins the horizon at its last clock
    plus its lookahead, no matter how far the other channels advance."""
    clocks = _ChannelClocks({1: 0.004, 2: 0.010}, start=0.0)
    clocks.update(2, 100.0)
    assert clocks.horizon() == pytest.approx(0.004)
    assert not clocks.all_at_least(0.01)
    clocks.update(1, 50.0)
    assert clocks.horizon() == pytest.approx(50.004)
    assert clocks.all_at_least(50.0)
    assert not clocks.all_at_least(50.5)


def test_channel_clock_unpopulated_and_empty():
    """An unpopulated channel (inf lookahead) never constrains, and a
    shard with no incoming channels at all is unbounded — the empty-shard
    decoupling the hierarchical partition relies on."""
    clocks = _ChannelClocks({1: float("inf"), 2: 0.01}, start=0.0)
    assert clocks.horizon() == pytest.approx(0.01)
    clocks.update(2, 3.0)
    assert clocks.horizon() == pytest.approx(3.01)  # inf channel invisible
    lonely = _ChannelClocks({}, start=0.0)
    assert lonely.horizon() == float("inf")
    assert lonely.all_at_least(1e9)


# ---------------------------------------------------------------------------
# Worker build guards
# ---------------------------------------------------------------------------


def _with_temp_builder(name, builder):
    SYSTEM_BUILDERS[name] = builder
    return name


def test_no_lookahead_rejected():
    name = _with_temp_builder(
        "_test_zero_delay",
        lambda size, seed=0, **kw: _astro2_with_latency(
            size, seed, ConstantLatency(0.0)
        ),
    )
    try:
        state = _WorkerState(dict(system=name, size=4, seed=0), 0, 2)
        with pytest.raises(ShardingUnsupported, match="no\\s+lookahead"):
            state.build()
    finally:
        del SYSTEM_BUILDERS[name]


def test_non_pair_decomposable_rejected():
    name = _with_temp_builder(
        "_test_shared_rng",
        lambda size, seed=0, **kw: _astro2_with_latency(
            size, seed, europe_wan(size + 64, seed=seed, pair_streams=False)
        ),
    )
    try:
        state = _WorkerState(dict(system=name, size=4, seed=0), 0, 2)
        with pytest.raises(ShardingUnsupported, match="pair-decomposable"):
            state.build()
    finally:
        del SYSTEM_BUILDERS[name]


def test_tie_prone_latency_rejected():
    """Constant delays produce exact arrival-time ties whose order would
    depend on the shard partition — the worker must refuse them."""
    name = _with_temp_builder(
        "_test_constant_delay",
        lambda size, seed=0, **kw: _astro2_with_latency(
            size, seed, ConstantLatency(0.01)
        ),
    )
    try:
        state = _WorkerState(dict(system=name, size=4, seed=0), 0, 2)
        with pytest.raises(ShardingUnsupported, match="ties"):
            state.build()
    finally:
        del SYSTEM_BUILDERS[name]


def _astro2_with_latency(size, seed, latency):
    from repro.core.system import Astro2System
    from repro.workloads.uniform import uniform_genesis

    return Astro2System(
        num_replicas=size,
        genesis=uniform_genesis(size * 4),
        seed=seed,
        latency=latency,
    )


def test_find_peak_job_falls_back_to_serial_on_unshardable_model(monkeypatch):
    """A worker-side ShardingUnsupported (relayed through the
    coordinator) must degrade the whole cell to the serial engine, not
    crash the benchmark job.

    The astro2 builder itself is patched to a tie-prone constant-latency
    model: fork workers inherit the patch, reject the build, and the job
    must still return a serial PeakResult.  (Linux/fork only — under
    spawn the workers would re-import the real builder.)
    """
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("builder patch only reaches workers under fork")
    from repro.bench.jobs import exec_find_peak
    from repro.bench.parallel import ScenarioJob, run_unit

    monkeypatch.setitem(
        SYSTEM_BUILDERS, "astro2",
        lambda size, seed=0, **kw: _astro2_with_latency(
            size, seed, ConstantLatency(0.01)
        ),
    )
    result = run_unit(ScenarioJob(
        fn=exec_find_peak,
        params=dict(system="astro2", size=4, start_rate=500.0,
                    duration=0.4, warmup=0.3, refine_steps=0,
                    payment_budget=2000, max_probes=2,
                    sim_shards=2,
                    builder_kwargs=None),
        seed=3,
    ))
    assert result.probes  # the serial engine ran the search


# ---------------------------------------------------------------------------
# Byte-identity vs the serial engine
# ---------------------------------------------------------------------------

#: Two-probe chain: the second probe is warm (fresh=False) when the
#: first quiesced, exercising the worker-held system reuse path.
_PROBES = [(900.0, 0.6, 0.3), (1400.0, 0.6, 0.3)]


@pytest.mark.parametrize("shards", [2, 3, 4, 8])
def test_sharded_astro2_byte_identical(shards):
    # shards=8 > the 6-node population: the hierarchical partition emits
    # empty sub-shards whose channels carry inf lookaheads — the async
    # engine must keep byte-identity straight through them.
    serial_results, serial_state, serial_settled = _serial_reference(
        "astro2", 6, 13, _PROBES
    )
    sharded_results, merged = _sharded("astro2", 6, 13, _PROBES, shards)
    assert sharded_results == serial_results
    assert merged["state"] == serial_state
    assert merged["settled"] == serial_settled


def test_sharded_astro1_byte_identical():
    serial_results, serial_state, serial_settled = _serial_reference(
        "astro1", 6, 13, _PROBES
    )
    sharded_results, merged = _sharded("astro1", 6, 13, _PROBES, 2)
    assert sharded_results == serial_results
    assert merged["state"] == serial_state
    assert merged["settled"] == serial_settled


def test_fresh_probe_rebuilds_identically():
    """fresh=True must reset the worker fleet to the exact initial state:
    probing twice with fresh=True yields identical results."""
    spec = dict(system="astro2", size=5, seed=21, builder_kwargs=None)
    with ShardedOpenLoop(spec, shards=2) as cluster:
        first = cluster.probe(rate=700.0, duration=0.5, warmup=0.3, fresh=True)
        second = cluster.probe(rate=700.0, duration=0.5, warmup=0.3, fresh=True)
    assert _result_key(first) == _result_key(second)

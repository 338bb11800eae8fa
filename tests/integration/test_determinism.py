"""Determinism: identical seeds produce identical histories.

The simulator's core promise — every experiment is reproducible from its
seed — checked end-to-end through each full system.

Two layers of guarantee:

* run-to-run: two runs with the same seed in this process are identical;
* engine-vs-seed: the optimized engine (memoized digests, Event-free
  fast scheduling path, broadcast fan-out, inlined settle loops) produces
  **byte-identical histories** to the original unoptimized seed
  implementation.  The ``SEED_GOLDEN`` constants below were captured by
  running the seed engine (commit d6978f1) on these exact scenarios; the
  simulated clock is compared via ``float.hex`` so even one reordered or
  re-associated floating-point operation in the hot path fails the test.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from repro.consensus.system import BftSystem
from repro.core.system import Astro1System, Astro2System

GENESIS = {"a": 1000, "b": 1000, "c": 1000, "d": 1000}

WORKLOAD = [("a", "b", 3), ("b", "c", 5), ("c", "d", 7), ("d", "a", 2)] * 5

#: Histories of the seed engine: (now.hex(), events_executed,
#: settled_counts, sha256 of replica 0's state snapshot repr).
SEED_GOLDEN = {
    "astro1_seed123": (
        "0x1.44cc55d2d9355p-4",
        220,
        (20, 20, 20, 20),
        "c42b5b16ee42ac22dfd3f84a4bb169ce69e947dfde41e93b15ddd13095369e99",
    ),
    "astro2_seed456": (
        "0x1.59ccb19e897f9p-4",
        100,
        (20, 20, 20, 20),
        "1a698c3151a59f1a2d5e8023b91b015cf44a6d34950f5951d2268ba1d8c9da00",
    ),
    "astro2_sharded_seed789": (
        "0x1.70d1790001114p-4",
        108,
        (10, 10, 10, 10, 10, 10, 10, 10),
        "fdeaae19ac9222631d73ef89325aff7f67d32ddfee197423635d5ce0ed9fde7e",
    ),
    "bft_seed321": (
        (20, 20, 20, 20),
        "c42b5b16ee42ac22dfd3f84a4bb169ce69e947dfde41e93b15ddd13095369e99",
    ),
}


def _fingerprint(snapshot) -> str:
    return hashlib.sha256(repr(snapshot).encode()).hexdigest()


def run_astro1(seed):
    system = Astro1System(num_replicas=4, genesis=dict(GENESIS), seed=seed)
    for transfer in WORKLOAD:
        system.submit(*transfer)
    system.settle_all()
    return (
        system.sim.now,
        system.sim.events_executed,
        tuple(system.settled_counts()),
        system.replica(0).state.snapshot(),
    )


def run_astro2(seed, shards=1):
    system = Astro2System(
        num_replicas=4, num_shards=shards, genesis=dict(GENESIS), seed=seed
    )
    for transfer in WORKLOAD:
        system.submit(*transfer)
    system.settle_all()
    return (
        system.sim.now,
        system.sim.events_executed,
        tuple(system.settled_counts()),
        system.replica(0).state.snapshot(),
    )


def run_bft(seed):
    system = BftSystem(num_replicas=4, genesis=dict(GENESIS), seed=seed)
    for transfer in WORKLOAD:
        system.submit(*transfer)
    system.settle_all(max_time=20)
    return (
        tuple(system.settled_counts()),
        system.replicas[0].state.snapshot(),
    )


def test_astro1_bitwise_reproducible():
    assert run_astro1(123) == run_astro1(123)


def test_astro2_bitwise_reproducible():
    assert run_astro2(456) == run_astro2(456)


def test_astro2_sharded_bitwise_reproducible():
    assert run_astro2(789, shards=2) == run_astro2(789, shards=2)


def test_bft_bitwise_reproducible():
    assert run_bft(321) == run_bft(321)


def _golden_form(history):
    now, events, settled, snapshot = history
    return (now.hex(), events, settled, _fingerprint(snapshot))


def test_astro1_history_identical_to_seed_engine():
    assert _golden_form(run_astro1(123)) == SEED_GOLDEN["astro1_seed123"]


def test_astro2_history_identical_to_seed_engine():
    assert _golden_form(run_astro2(456)) == SEED_GOLDEN["astro2_seed456"]


def test_astro2_sharded_history_identical_to_seed_engine():
    assert (
        _golden_form(run_astro2(789, shards=2))
        == SEED_GOLDEN["astro2_sharded_seed789"]
    )


def test_bft_history_identical_to_seed_engine():
    settled, snapshot = run_bft(321)
    assert (settled, _fingerprint(snapshot)) == SEED_GOLDEN["bft_seed321"]


def test_different_seeds_differ_in_timing():
    # Same final state (the workload is deterministic), different event
    # interleavings (latency jitter differs by seed).
    a = run_astro1(1)
    b = run_astro1(2)
    assert a[3] == b[3]          # same economics
    assert a[0] != b[0] or a[1] != b[1]  # different histories


# ---------------------------------------------------------------------------
# Hash-seed independence of the *uncovered* protocol paths
# ---------------------------------------------------------------------------
# The figure benchmarks are already proven PYTHONHASHSEED-independent;
# consensus view changes, reconfiguration (membership) and Bracha across
# view changes (DBRB) were not.
# String-keyed sets/dicts iterate in hash-seed-dependent order, so any
# ordering leak from them into message or certificate assembly shows up
# as differing histories between fresh interpreters with different seeds.

_HASHSEED_SNIPPET = """
import hashlib
from repro.consensus.config import BftConfig
from repro.consensus.system import BftSystem
from repro.bench.fig8 import measure_astro_join_series

GENESIS = {"a": 1000, "b": 1000, "c": 1000, "d": 1000}
WORKLOAD = [("a", "b", 3), ("b", "c", 5), ("c", "d", 7), ("d", "a", 2)] * 5

# Consensus view change: the view-0 leader crashes before its proposals
# decide, forcing STOP/STOPDATA/SYNC and re-proposal under a new leader.
config = BftConfig(num_replicas=4, request_timeout=0.4,
                   timeout_check_interval=0.1)
system = BftSystem(num_replicas=4, genesis=dict(GENESIS), config=config,
                   seed=11)
system.faults.crash(system.replicas[0].node_id, at=0.001)
for transfer in WORKLOAD:
    system.submit(*transfer)
system.settle_all(max_time=30)
replica = system.replicas[1]
assert replica.view_changes >= 1, "scenario must exercise a view change"
print("bft", replica.view, replica.view_changes,
      tuple(system.settled_counts()), system.sim.now.hex(),
      hashlib.sha256(repr(replica.state.snapshot()).encode()).hexdigest())

# Reconfiguration: three consensusless joins growing one system 4 -> 6.
latencies = measure_astro_join_series([4, 5, 6], seed=3)
print("reconfig", [latency.hex() for latency in latencies])

# Bracha across views (DBRB): broadcasts in flight while two replicas
# join and leave restart in every installed view.
from repro.brb.bracha import BrachaBroadcast
from repro.reconfig.views import View
from repro.sim import Network, Node, Simulator, UniformLatency

sim = Simulator()
network = Network(sim, latency=UniformLatency(0.001, 0.02, seed=5))
view = View(0, range(4))
log = []
layers = [
    BrachaBroadcast(
        Node(sim, i, network), range(4),
        lambda o, s, p, i=i: log.append((i, o, s, p, sim.now.hex())),
    )
    for i in range(6)
]
for seq in range(1, 5):
    for origin in range(4):
        layers[origin].broadcast(seq, ("pay", f"c{origin}", seq), 100)
    sim.run(until=sim.now + 0.01)
    view = view.with_member(seq + 3) if seq < 3 else view.without_member(seq + 1)
    for layer in layers:
        layer.install_view(view)
sim.run_until_idle()
assert all(layers[i].delivered.front == dict.fromkeys(range(4), 4)
           for i in range(4)), "every broadcast must survive the view changes"
print("dbrb", view.number, sim.now.hex(), log)
"""


def _run_fresh_interpreter(hashseed: int, snippet: str = _HASHSEED_SNIPPET) -> str:
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed), PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_view_change_and_reconfig_hashseed_independent():
    outputs = {_run_fresh_interpreter(seed) for seed in (0, 1, 4242)}
    assert len(outputs) == 1, f"histories diverged across hash seeds: {outputs}"


# ---------------------------------------------------------------------------
# Cross-delivery CREDIT coalescing: hash-seed independence
# ---------------------------------------------------------------------------
# The coalesced credit path flushes from the KeyedCoalescer's per-key
# buckets and timers.  Keys are replica node ids but the payments inside
# carry string client ids, so any ordering leak from a set/dict-internals
# iteration in the staging or flush path would diverge across hash seeds.

_COALESCE_SNIPPET = """
import hashlib
from repro.core.config import AstroConfig
from repro.core.system import Astro2System

GENESIS = {"a": 1000, "b": 1000, "c": 1000, "d": 1000}
WORKLOAD = [("a", "b", 3), ("b", "c", 5), ("c", "d", 7), ("d", "a", 2)] * 5

config = AstroConfig(num_replicas=4, batch_delay=0.01,
                     credit_coalesce_delay=0.02)
system = Astro2System(num_replicas=4, genesis=dict(GENESIS), config=config,
                      seed=13)
for index, transfer in enumerate(WORKLOAD):
    # Staggered submissions: several deliveries per coalescing window.
    system.sim.schedule(0.004 * index, system.submit, *transfer)
system.settle_all()
replica = system.replicas[0]
print("coalesced", system.sim.now.hex(), system.sim.events_executed,
      tuple(system.settled_counts()),
      hashlib.sha256(repr(replica.state.snapshot()).encode()).hexdigest())
"""


def test_coalesced_credit_path_hashseed_independent():
    outputs = {
        _run_fresh_interpreter(seed, _COALESCE_SNIPPET)
        for seed in (0, 1, 4242)
    }
    assert len(outputs) == 1, (
        f"coalesced-credit histories diverged across hash seeds: {outputs}"
    )


# ---------------------------------------------------------------------------
# One fig3-style peak-search cell: hash-seed independence of the probe chain
# ---------------------------------------------------------------------------
# A tight-budget peak search whose *entire history* — every probe's
# RunResult floats — must be identical in fresh interpreters under
# different PYTHONHASHSEEDs, with and without CREDIT coalescing.  With
# ``reuse_state`` a passing probe hands its warm system to the next, so
# an ordering leak anywhere in one probe would compound down the chain;
# nothing else runs a warm-probe chain across hash seeds.

_FIG3_CELL_SNIPPET = """
from repro.bench.jobs import exec_find_peak
from repro.bench.parallel import ScenarioJob, run_unit

peak = run_unit(ScenarioJob(
    fn=exec_find_peak,
    params=dict(system="astro2", size=6, start_rate=800.0, duration=0.5,
                warmup=0.3, refine_steps=1, payment_budget=6000,
                max_probes=3, reuse_state=True,
                builder_kwargs=BUILDER_KWARGS),
    seed=9))
for probe in peak.probes:
    print("probe", probe.offered, probe.achieved, probe.injected,
          probe.confirmed,
          probe.latency.mean.hex() if probe.latency.count else None,
          probe.latency.p95.hex() if probe.latency.count else None)
print("peak", peak.peak_pps, peak.peak_probe_index)
"""


def test_fig3_cell_probe_history_hashseed_independent():
    for builder_kwargs in (None, {"credit_coalesce_delay": 0.02}):
        snippet = _FIG3_CELL_SNIPPET.replace(
            "BUILDER_KWARGS", repr(builder_kwargs)
        )
        outputs = {
            _run_fresh_interpreter(seed, snippet) for seed in (0, 4242)
        }
        assert len(outputs) == 1, (
            f"fig3-cell histories diverged across hash seeds with "
            f"builder_kwargs={builder_kwargs}: {outputs}"
        )
        assert outputs.pop().count("probe ") == 3  # the whole chain ran


# ---------------------------------------------------------------------------
# Byzantine adversary timelines: hash-seed invariance
# ---------------------------------------------------------------------------
# Attacked histories must be a pure function of scenario + seed like
# benign ones: behaviours draw from SHA-256 stable_rng streams (never
# hash()).  One timeline per system, using attacks that *do*
# consume behaviour RNG (selective's starved-set sample, replay's
# probabilistic redelivery), so the stable-stream claim is actually
# exercised; the forged-CREDIT attack additionally covers forged-message
# construction.

_ADVERSARY_SNIPPET = """
import json
from repro.bench.adversary import run_adversary_cell
from repro.bench.parallel import ScenarioJob, run_unit

for system, attack in (("astro1", "selective"), ("astro2", "forge_credit"),
                       ("astro2", "replay")):
    cell = run_unit(ScenarioJob(
        fn=run_adversary_cell,
        params=dict(system=system, size=7, attack=attack, num_clients=6,
                    warmup=1.0, window=4.0, attack_offset=1.0,
                    monitor_interval=0.5),
        seed=21))
    print(system, attack, [f"{v:.17g}" for v in cell["series"]],
          cell["completed"], cell["tampered"],
          json.dumps(cell["verdict"], sort_keys=True))
"""


def test_adversary_timeline_hashseed_independent():
    outputs = {
        _run_fresh_interpreter(seed, _ADVERSARY_SNIPPET)
        for seed in (0, 1, 4242)
    }
    assert len(outputs) == 1, (
        f"attacked histories diverged across hash seeds: {outputs}"
    )
    # The single shared output must show safe, actually-attacked runs.
    output = outputs.pop()
    assert output.count('"ok": true') == 3, output


def test_fault_injection_reproducible():
    def run(seed):
        system = Astro1System(num_replicas=4, genesis=dict(GENESIS), seed=seed)
        system.faults.crash(3, at=0.05)
        for transfer in WORKLOAD:
            system.submit(*transfer)
        system.settle_all()
        return (
            system.sim.events_executed,
            tuple(r.settled_count for r in system.replicas[:3]),
        )

    assert run(42) == run(42)

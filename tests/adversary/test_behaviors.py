"""Every attack, on every applicable system, under live monitoring.

The acceptance bar for the attack library: all five safety invariants
of ``repro.adversary.monitor`` hold at *correct* replicas while each
attack runs, checked online by the :class:`InvariantMonitor` on a sub-second cadence plus a
final post-run sample.  The forged-CREDIT and attacker-sized-signature
attacks double as regression tests for the PR 5 hardening (first-arrival
digest validation in ``DependencyCollector.add_credit``; O(1) tuple-shape
and distinct-signer rejection in ``verify_certificate``).
"""

import functools

import pytest

from repro.adversary import ATTACKS, InvariantMonitor, install_adversary
from repro.adversary.behaviors import ByzantineBehavior
from repro.bench.systems import SYSTEM_BUILDERS, client_ids_of
from repro.core.dependencies import CreditMessage
from repro.core.persistence import state_fingerprint
from repro.bench.timeline import run_timeline

SIZE = 7  # f = 2 Byzantine replicas
WARMUP = 1.0
WINDOW = 3.0
ARM_AT = 1.5  # 0.5 s into the observation window
END = WARMUP + WINDOW

COMBOS = [
    (system, name)
    for system in ("astro1", "astro2")
    for name, cls in sorted(ATTACKS.items())
    if system in cls.systems
]


@functools.lru_cache(maxsize=None)
def run_attacked(system_name, attack):
    """One attacked timeline; cached so targeted tests reuse the run."""
    system = SYSTEM_BUILDERS[system_name](SIZE, seed=7)
    adversary = install_adversary(
        system, {"attack": attack, "at": ARM_AT}, seed=7
    )
    monitor = InvariantMonitor.watch(
        system, interval=0.25, byzantine_ids=adversary.byzantine_ids,
        until=END,
    )
    result = run_timeline(
        system, num_clients=6, warmup=WARMUP, window=WINDOW, seed=7,
    )
    monitor.stop()
    monitor.sample_replicas()
    return system, adversary, monitor, result


def correct_replicas(system, adversary):
    return [
        system.replica_by_node(node_id)
        for node_id in system.replica_node_ids
        if node_id not in adversary.byzantine_ids
    ]


@pytest.mark.parametrize("system_name,attack", COMBOS)
def test_invariants_hold_under_attack(system_name, attack):
    system, adversary, monitor, result = run_attacked(system_name, attack)
    assert adversary.byzantine_ids == tuple(system.replica_node_ids[-2:])
    assert adversary.tampered > 0, "attack never fired"
    assert result.completed > 0, "no payments settled under attack"
    assert monitor.samples >= 10, "monitor must sample during the run"
    verdict = monitor.verdict()
    assert verdict["ok"], f"safety violated: {monitor.violations[:3]}"
    assert verdict["first_violation"] is None


@pytest.mark.parametrize("system_name,attack", COMBOS)
def test_attack_armed_at_configured_time(system_name, attack):
    _, adversary, _, _ = run_attacked(system_name, attack)
    assert adversary.armed_at == ARM_AT
    for behavior in adversary.behaviors:
        assert behavior.active


def test_forged_credits_never_certify_inflated_amounts():
    """PR 5 regression: the collector's first-arrival digest check is the
    only thing standing between a forged CREDIT payload and a certificate
    over inflated amounts."""
    system, adversary, _, result = run_attacked("astro2", "forge_credit")
    # Forgeries were actually sent...
    assert adversary.tampered > 0
    # ...yet no inflated amount (forgery pattern: 100·a + 1) ever settled
    # or materialized at a correct replica.
    for replica in correct_replicas(system, adversary):
        for _, _, _, log in replica.state.accounts():
            for payment in log.entries():
                assert payment.amount < 10_000
    # Certificates still mint from the >= f+1 correct settlers: progress
    # continued after the attack armed.
    assert result.after_fault() > 0


def test_stuffed_certificates_rejected_but_batch_settles():
    """PR 5 regression: oversized tuples die on the O(1) length check,
    undersized ones on the distinct-signer threshold — while the stuffed
    batch's *real* payments settle untouched at correct replicas."""
    system, adversary, _, _ = run_attacked("astro2", "cert_stuffing")
    assert adversary.tampered > 0
    stuffed_seen = 0
    for replica in correct_replicas(system, adversary):
        # No ghost dependency was ever materialized.
        for used in replica._used_deps.values():
            for dep_id in used:
                spender = dep_id[0]
                assert not (
                    isinstance(spender, tuple) and spender
                    and spender[0] == "ghost"
                )
        # No ghost client ever gained a balance or an xlog.
        for client, _, _, _ in replica.state.accounts():
            assert not (
                isinstance(client, tuple) and client
                and client[0] == "ghost"
            )
        for _, _, _, log in replica.state.accounts():
            for payment in log.entries():
                stuffed_seen += sum(
                    1 for cert in payment.deps
                    if isinstance(cert.core[0], tuple)
                    and cert.core[0][0] == "ghost"
                )
    # The stuffed batch itself reached correct replicas' xlogs (the
    # attacker's forged digest gathered its own ACK quorum).
    assert stuffed_seen > 0


def test_mute_replicas_do_not_stop_settlement():
    _, adversary, _, result = run_attacked("astro1", "mute")
    assert adversary.tampered > 0
    assert result.after_fault() > 0


def test_flood_victim_survives():
    system, adversary, _, result = run_attacked("astro2", "flood")
    victim = min(
        n for n in system.replica_node_ids
        if n not in adversary.byzantine_ids
    )
    replica = system.replica_by_node(victim)
    # The ghost spender never corrupted client state at the victim.
    for client, _, _, _ in replica.state.accounts():
        assert not (
            isinstance(client, tuple) and client and client[0] == "flood"
        )
    assert result.after_fault() > 0


def test_equivocation_keeps_correct_replicas_convergent():
    system, adversary, monitor, _ = run_attacked("astro2", "equivocate")
    assert adversary.tampered > 0
    # Spot-check beyond the monitor: every pair of correct replicas in
    # the (single) shard agrees by prefix on every client's xlog.
    replicas = correct_replicas(system, adversary)
    for client in system.genesis:
        logs = [
            r.state.xlog(client) for r in replicas
        ]
        reference = max(logs, key=len)
        assert all(log.is_prefix_of(reference) for log in logs)


def test_tap_forwards_verbatim_until_armed():
    """Before the arm time an attacked run is byte-identical to benign."""
    def run(adversary_spec):
        system = SYSTEM_BUILDERS["astro2"](4, seed=5)
        if adversary_spec is not None:
            install_adversary(system, adversary_spec, seed=5)
        for index, transfer in enumerate(
            [("c", "d", 3), ("d", "c", 5)] * 4
        ):
            clients = sorted(system.genesis, key=repr)
            system.submit(clients[index % 2], clients[2], 1)
        system.run(0.5)
        return (
            system.sim.now,
            system.sim.events_executed,
            tuple(system.settled_counts()),
        )

    benign = run(None)
    armed_later = run({"attack": "mute", "at": 100.0})
    assert benign == armed_later


class _CountingTap(ByzantineBehavior):
    """Never armed: forwards verbatim, counting the CREDITs it sees."""

    name = "count"

    def __init__(self):
        super().__init__()
        self.credits = 0

    def send(self, dst, payload, *args, **kwargs):
        self.credits += isinstance(payload, CreditMessage)
        super().send(dst, payload, *args, **kwargs)


def test_unarmed_tap_on_astro2_reproduces_credit_trains():
    """A tap sees each CREDIT of a per-delivery ``send_each`` train as one
    send, and forwarding them one by one reproduces the untapped run:
    clocks, events, every node's CPU and link, every replica's state."""
    def run(tapped):
        system = SYSTEM_BUILDERS["astro2"](4, seed=5)
        replica = system.replica_by_node(system.replica_node_ids[-1])
        trains = []
        if tapped:
            tap = _CountingTap()
            tap.attach(replica, system, rng=None)
        else:
            send_each = replica.send_each
            replica.send_each = lambda sends: (
                trains.append(len(sends)), send_each(sends))
        clients = client_ids_of(system)
        for round_ in range(3):
            for index, client in enumerate(clients):
                system.submit(client, clients[(index + round_ + 1) % len(clients)], 1)
        system.settle_all()
        nodes = sorted(system.network.nodes.values(), key=lambda n: n.node_id)
        stats = system.network.stats
        history = (
            system.sim.now.hex(), system.sim.events_executed, system.sim._seq,
            stats.messages_sent, stats.messages_delivered, stats.bytes_sent,
            [(n.cpu.busy_time.hex(), n.cpu.jobs_served,
              n.link.busy_time.hex(), n.link.jobs_served) for n in nodes],
            [state_fingerprint(r.state) for r in system.replicas],
        )
        return history, (tap.credits if tapped else trains)

    untapped, trains = run(tapped=False)
    tapped, credits = run(tapped=True)
    assert tapped == untapped
    assert max(trains) >= 2  # a delivery's CREDITs left as one train
    assert credits == sum(trains)


def test_attack_applicability_enforced():
    system = SYSTEM_BUILDERS["astro1"](4, seed=1)
    with pytest.raises(ValueError, match="applies to"):
        install_adversary(system, "forge_credit", seed=1)
    with pytest.raises(ValueError, match="unknown attack"):
        install_adversary(system, "nonexistent", seed=1)
    with pytest.raises(ValueError, match="count"):
        install_adversary(system, {"attack": "mute", "count": 4}, seed=1)

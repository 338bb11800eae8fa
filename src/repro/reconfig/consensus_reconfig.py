"""Consensus-based reconfiguration baseline (Fig. 8's BFT-SMaRt curve).

BFT-SMaRt treats a reconfiguration as a special totally-ordered request
handled by its View Manager [14], [15]: the join request is submitted to
the leader, ordered through a full consensus instance, and only then does
the view manager notify the joiner, which must still fetch state and get
up to date.  We reproduce that path on the real consensus core of
:mod:`repro.consensus`: the join travels through PROPOSE/WRITE/ACCEPT
like any request, after which the leader ships the membership decision
plus state to the joiner.
"""

from __future__ import annotations

from typing import List

from ..consensus.system import BftSystem
from ..core.payment import Payment
from ..crypto import costs

__all__ = ["measure_consensus_join_latency"]


def measure_consensus_join_latency(
    num_replicas: int,
    state_bytes: int = 10_000,
    seed: int = 0,
) -> float:
    """Join latency at system size ``num_replicas`` (one sequential join).

    The measured interval matches the paper's definition: from the view
    manager receiving the special operation until the joiner is told it
    can start participating and should get up to date (§A-B) — i.e. one
    ordered consensus decision plus the view-manager round and state
    shipment to the joiner.
    """
    system = BftSystem(num_replicas=num_replicas, genesis={"reconfig": 1}, seed=seed)
    start = system.sim.now
    done: List[float] = []

    def on_confirm(payment: Payment, latency: float) -> None:
        done.append(system.sim.now)

    system.add_confirm_hook(on_confirm)
    # The special reconfiguration request, ordered like a client request.
    system.submit("reconfig", "reconfig", 0)
    system.settle_all(max_time=60.0)
    if not done:
        raise RuntimeError("reconfiguration request was never ordered")
    ordered_at = done[0]
    # After ordering: the view manager synchronizes the new view and ships
    # state to the joiner.  BFT-SMaRt's durable state transfer [14] sends
    # the *operation log*, which the joiner replays — the dominant cost,
    # scaled by the baseline's JVM overhead factor.  Astro's snapshot
    # (send all xlogs, apply directly) avoids the replay entirely, which
    # is where Fig. 8's order-of-magnitude gap comes from.
    latency_model = system.network.latency
    leader = system.replicas[0]
    rtt = 2 * latency_model.expected(leader.node_id, num_replicas - 1)
    transfer = state_bytes / leader.link.bandwidth
    ops_in_log = state_bytes / costs.PAYMENT_BYTES
    replay = costs.BFT_OVERHEAD_FACTOR * ops_in_log * (
        costs.BFT_REQUEST + costs.SETTLE_PER_PAYMENT
    )
    processing = (
        costs.BFT_OVERHEAD_FACTOR
        * (costs.MESSAGE_OVERHEAD * num_replicas + costs.PER_BYTE_CPU * state_bytes)
    )
    return (ordered_at - start) + rtt + transfer + replay + processing

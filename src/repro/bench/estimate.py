"""Cold-start peak-rate estimation for the Fig. 3 sweep.

Seeding each size's peak search from the previous size's measured peak
would serialize a 17-size sweep into 17 searches per system and cap a
full-scale Fig. 3 at ``len(systems)`` workers.  This module supplies a
prediction instead: an analytic peak-vs-N curve derived from the
crypto/CPU cost model (:mod:`repro.crypto.costs`) and quorum sizes,
calibrated by one or two cheap sub-saturation anchor probes at the
smallest sizes (bottleneck utilization extrapolated to capacity).  Each
(system, size) cell is then an independent cold-start job whose
:func:`~repro.bench.peak.find_peak` search is seeded with an estimated
``(low, high)`` bracket.

The analytic model is deliberately coarse: absolute accuracy is supplied
by the anchor calibration, and a bracket that misses only costs the
search a few extra doubling/walk-down probes — results are measured, the
estimate never appears in any reported number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..brb.batching import DEFAULT_BATCH_SIZE as _BATCH
from ..brb.quorums import byzantine_quorum, max_faulty
from ..crypto import costs
from ..sim.node import DEFAULT_BANDWIDTH as _NIC_BYTES_PER_SEC
from ..sim.node import DEFAULT_CORES as _CPU_CORES
from .systems import credit_coalesce_window, scaled_batch_delay

__all__ = [
    "PeakEstimate",
    "analytic_capacity",
    "bracket_for",
    "calibrated_capacity",
    "credit_amortization",
    "estimate_peaks",
    "ANCHOR_RATE_FRACTION",
    "BRACKET_LOW",
    "BRACKET_HIGH",
]

#: The model's constants are the simulator's own: node resources
#: (``sim.node``: the t2.medium profile of §VI-A), the paper batch size
#: the per-batch costs amortize over (``brb.batching``), and every CPU
#: cost and wire size in the cost model (``crypto.costs``).
_BATCH_BYTES = costs.HEADER_BYTES + _BATCH * costs.PAYMENT_BYTES

#: Anchor probes offer this fraction of the analytic capacity: safely
#: *below* saturation, where the bottleneck resource's measured
#: utilization extrapolates linearly to capacity (rate / utilization).
#: A sub-saturation anchor costs a small, bounded number of simulated
#: payments — a saturating probe at an overestimated rate does not.
ANCHOR_RATE_FRACTION = 0.25

#: Default bracket, as fractions of the estimated capacity.  The latency
#: envelope puts the measured peak a little below raw capacity, so the
#: band is asymmetric: the low hint should pass, the high hint should
#: fail, and two refinement bisections land within ~15% of the boundary.
BRACKET_LOW = 0.40
BRACKET_HIGH = 1.25


@dataclass(frozen=True)
class PeakEstimate:
    """Predicted peak-search seed for one (system, size) cell."""

    system: str
    size: int
    #: Calibrated saturation-capacity estimate, payments/second.
    capacity_pps: float
    #: ``(low_hint, high_hint)`` bracket for ``find_peak``.
    bracket: Tuple[float, float]


def credit_amortization(n: int, credit_coalesce_delay: float) -> float:
    """Sub-batches amortized by one CREDIT transport envelope (≥ 1).

    With coalescing off every sub-batch ships in its own message (factor
    1).  With a window of ``delay`` seconds, a replica delivers about one
    batch per representative per batch window
    (:func:`~repro.bench.systems.scaled_batch_delay`), each delivery
    contributing at most one sub-batch per destination representative, so
    one :class:`~repro.core.dependencies.CreditBundle` carries
    ``≈ n × delay / batch_window`` sub-batches and the per-*message*
    envelope costs divide by that factor.  The factor saturates at one
    batch window's worth (``≈ n``): the coalescer's weight cap flushes a
    (settler → representative) bucket once it holds ``batch_size``
    payments, which under uniform load accumulate in about one batch
    window regardless of how much larger the time window is.
    Per-sub-batch work (signing, verification, signature bytes, payload
    bytes) is window-invariant: transport coalescing merges envelopes,
    never sub-batch content.  Deliberately coarse — anchors calibrate
    the absolute scale; this only has to bend the peak-vs-N shape the
    way the coalescer does.
    """
    if credit_coalesce_delay <= 0:
        return 1.0
    window = scaled_batch_delay(n)
    return max(1.0, n * min(credit_coalesce_delay, window) / window)


def _per_batch_cpu_astro2(
    n: int, credit_coalesce_delay: float = 0.0
) -> float:
    """Bottleneck-replica CPU seconds per delivered batch, Astro II.

    Per batch a replica: receives the PREPARE (hash + ACK signature),
    verifies the COMMIT certificate (quorum of ECDSA signatures — the
    term that drives the large-N decay), settles the payments, signs one
    CREDIT per beneficiary representative group (≈ min(N, B) groups under
    uniform beneficiaries) and, as a representative, verifies the N
    incoming CREDIT sub-batches for its own clients.  Request ingestion
    amortizes over the N representatives (B/N payments per batch each).
    Only the per-*envelope* CREDIT terms (message/send overhead) divide
    by the coalescing amortization factor: signing and verification stay
    per sub-batch (each sub-batch feeds its own certificate), and the
    per-byte credit payload ingest is window-invariant (every settled
    payment is re-unicast exactly once regardless of windowing).

    Baseline correction vs the pre-coalescing model (PR 3): the credit
    payload ingest term ``PER_BYTE_CPU × B × payment_bytes`` was missing
    entirely — the knob-*off* capacity here is deliberately lower (more
    accurate) than PR 3's, independent of the coalescing knob, and the
    knob-off brackets/anchors were re-validated against measured peaks
    (see benchmarks/test_fig3_strategies.py).
    """
    f = max_faulty(n)
    quorum = byzantine_quorum(n, f)
    groups = min(n, _BATCH)
    prepare = (
        costs.MESSAGE_OVERHEAD
        + costs.PER_BYTE_CPU * _BATCH * costs.PAYMENT_BYTES
        + costs.HASH_PER_PAYMENT * _BATCH
        + costs.ECDSA_SIGN
        + costs.SEND_OVERHEAD
    )
    commit = costs.MESSAGE_OVERHEAD + quorum * costs.ECDSA_VERIFY
    amortize = credit_amortization(n, credit_coalesce_delay)
    credits = (
        (groups * costs.SEND_OVERHEAD + n * costs.MESSAGE_OVERHEAD) / amortize
        + groups * costs.ECDSA_SIGN
        + n * costs.ECDSA_VERIFY
        + costs.PER_BYTE_CPU * _BATCH * costs.PAYMENT_BYTES
    )
    # Per-payment work: settle everywhere; ingest/confirm only for the
    # representative's own 1/N share of clients.
    per_payment = costs.SETTLE_PER_PAYMENT + (
        costs.INGEST_PER_REQUEST + costs.CONFIRM_PER_PAYMENT
    ) / n
    return prepare + commit + credits + per_payment * _BATCH


def _per_batch_cpu_astro1(n: int) -> float:
    """Bottleneck-replica CPU seconds per delivered batch, Astro I.

    Echo-based BRB: O(N²) messages system-wide means each replica sends
    and receives ~2N MAC-authenticated ECHO/READY messages per batch —
    the linear-in-N term — with the payload (and its hashing) carried by
    the echoes.
    """
    per_message = (
        costs.MESSAGE_OVERHEAD
        + costs.MAC_VERIFY
        + costs.SEND_OVERHEAD
        + costs.MAC_COMPUTE
    )
    payload = (
        costs.PER_BYTE_CPU * _BATCH * costs.PAYMENT_BYTES
        + costs.HASH_PER_PAYMENT * _BATCH
    )
    per_payment = costs.SETTLE_PER_PAYMENT + (
        costs.INGEST_PER_REQUEST + costs.CONFIRM_PER_PAYMENT
    ) / n
    return 2 * n * per_message + 2 * payload + per_payment * _BATCH


def _per_batch_cpu_bft(n: int) -> float:
    """Leader CPU seconds per decided batch, BFT baseline.

    The leader fans the (wire-amplified) PROPOSE to N-1 replicas and
    absorbs the two all-to-all quorum phases (~2N control messages per
    instance); every client request costs ingestion at *each* replica.
    ``BFT_OVERHEAD_FACTOR`` (the JVM/BFT-SMaRt calibration) scales the
    per-message costs.
    """
    overhead_factor = costs.BFT_OVERHEAD_FACTOR
    per_control = (costs.MESSAGE_OVERHEAD + costs.MAC_VERIFY) * overhead_factor
    propose_send = (
        (costs.SEND_OVERHEAD + costs.MAC_COMPUTE) * overhead_factor * n
        + costs.PER_BYTE_CPU * _BATCH * costs.PAYMENT_BYTES
        * costs.BFT_PROPOSE_WIRE_AMPLIFICATION
    )
    # Request ingestion at each replica, ×overhead_factor; settle + reply
    # per executed payment.
    per_payment = (
        costs.BFT_REQUEST * overhead_factor
        + costs.SETTLE_PER_PAYMENT
        + costs.BFT_REPLY
    )
    return propose_send + 2 * n * per_control + per_payment * _BATCH


def _per_batch_nic_astro2(
    n: int, credit_coalesce_delay: float = 0.0
) -> float:
    """Bottleneck-replica NIC seconds per delivered batch, Astro II.

    The representative serializes its own batch once towards each peer,
    but owns only a 1/N share of the batches; amortized per delivered
    batch that is ≈ one payload copy, plus the COMMIT certificate and
    per-group CREDIT unicasts.  Coalescing divides only the per-message
    CREDIT envelope *header* by the amortization factor; the per-sub-batch
    signature bytes and the credit payload (each settled payment
    re-unicast once, ~100 B — a term missing from the PR 3 baseline, see
    the CPU model's baseline-correction note) are window-invariant.
    """
    f = max_faulty(n)
    quorum = byzantine_quorum(n, f)
    commit = costs.HEADER_BYTES + quorum * costs.CERT_ENTRY_BYTES
    amortize = credit_amortization(n, credit_coalesce_delay)
    credits = (
        min(n, _BATCH) * costs.HEADER_BYTES / amortize
        + min(n, _BATCH) * costs.SIGNATURE_BYTES
        + _BATCH * costs.PAYMENT_BYTES
    )
    return (_BATCH_BYTES + commit + credits) / _NIC_BYTES_PER_SEC


def _per_batch_nic_astro1(n: int) -> float:
    """Astro I's O(N²) wire cost is what caps it: ECHO and READY both
    carry the full payload (see brb.bracha), so *every* replica
    serializes 2(N-1) payload copies per delivered batch."""
    return 2 * (n - 1) * _BATCH_BYTES / _NIC_BYTES_PER_SEC


def _per_batch_nic_bft(n: int) -> float:
    """The leader serializes the wire-amplified PROPOSE towards N-1
    replicas per batch, plus the two control-phase broadcasts."""
    propose = (n - 1) * _BATCH_BYTES * costs.BFT_PROPOSE_WIRE_AMPLIFICATION
    control = 2 * (n - 1) * costs.BFT_CONTROL_BYTES
    return (propose + control) / _NIC_BYTES_PER_SEC


_PER_BATCH = {
    "astro2": (_per_batch_cpu_astro2, _per_batch_nic_astro2),
    "astro1": (_per_batch_cpu_astro1, _per_batch_nic_astro1),
    "bft": (_per_batch_cpu_bft, _per_batch_nic_bft),
}


def analytic_capacity(
    system: str, size: int, credit_coalesce_delay: Optional[float] = None
) -> float:
    """Uncalibrated capacity estimate (payments/second) for one cell.

    The bottleneck replica's per-batch cost on its slower resource —
    pooled CPU cores or NIC serialization — inverted.  Only the
    *relative* shape across N must be right for bracket seeding (anchor
    calibration absorbs absolute error), but the value also picks the
    anchor probe rate, so it aims for the right order of magnitude.

    ``credit_coalesce_delay`` (Astro II only; other systems ignore it)
    bends the curve for the cross-delivery CREDIT coalescer;  ``None``
    is the window :func:`~repro.bench.systems.build_astro2` gives a
    system of this size, so figure enumeration estimates the system the
    builders will construct.
    """
    try:
        cpu_fn, nic_fn = _PER_BATCH[system]
    except KeyError:
        raise ValueError(
            f"unknown system {system!r}; expected one of {sorted(_PER_BATCH)}"
        ) from None
    if system == "astro2":
        delay = credit_coalesce_delay
        if delay is None:
            delay = credit_coalesce_window(size)
        bottleneck = max(cpu_fn(size, delay) / _CPU_CORES, nic_fn(size, delay))
    else:
        bottleneck = max(cpu_fn(size) / _CPU_CORES, nic_fn(size))
    return _BATCH / bottleneck


def calibrated_capacity(
    system: str,
    size: int,
    anchors: Optional[Dict[int, float]] = None,
) -> float:
    """Capacity estimate scaled through measured anchor probes.

    ``anchors`` maps anchor size -> measured saturated throughput.  With
    one anchor the analytic curve is rescaled so it passes through the
    measurement; with two, the correction factor is interpolated
    log-linearly in N (and clamped beyond the anchor span, so a noisy
    slope cannot run away at large extrapolated sizes).
    """
    base = analytic_capacity(system, size)
    if not anchors:
        return base
    points = sorted(
        (a_size, measured / analytic_capacity(system, a_size))
        for a_size, measured in anchors.items()
        if measured > 0
    )
    if not points:
        return base
    if len(points) == 1 or points[0][0] == points[-1][0]:
        return base * points[0][1]
    (n0, c0), (n1, c1) = points[0], points[-1]
    t = (size - n0) / (n1 - n0)
    t = max(-0.5, min(t, 2.0))  # clamp extrapolation of the correction slope
    correction = math.exp(
        math.log(c0) + t * (math.log(c1) - math.log(c0))
    )
    return base * correction


def bracket_for(capacity_pps: float) -> Tuple[float, float]:
    """``find_peak`` bracket around an estimated capacity."""
    if capacity_pps <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_pps}")
    low = max(capacity_pps * BRACKET_LOW, 50.0)
    high = max(capacity_pps * BRACKET_HIGH, low * 2.0)
    return (low, high)


def estimate_peaks(
    system: str,
    sizes: Sequence[int],
    anchors: Optional[Dict[int, float]] = None,
) -> Dict[int, PeakEstimate]:
    """Per-size peak estimates for one system, calibrated by ``anchors``."""
    estimates: Dict[int, PeakEstimate] = {}
    for size in sizes:
        capacity = calibrated_capacity(system, size, anchors)
        estimates[size] = PeakEstimate(
            system=system,
            size=size,
            capacity_pps=capacity,
            bracket=bracket_for(capacity),
        )
    return estimates


"""The simulator's cost model: every CPU cost and wire size it charges.

The paper's two Astro variants differ exactly in their crypto/CPU vs
message-complexity trade-off (§IV-A): Astro I uses cheap MACs but O(N²)
messages; Astro II uses ECDSA P-256 signatures (Go standard library,
§VI-A) but O(N) messages.  Simulated nodes charge these service times to
their CPU servers so that trade-off shows up in the measured numbers.

Values approximate Go ``crypto/ecdsa`` P-256 and HMAC-SHA256 on a
t2.medium vCore; absolute accuracy is unnecessary — only the relative
magnitudes (sig ≫ MAC ≫ hash) drive the reproduced shapes.

The per-payment costs, the BFT baseline's calibration and the wire sizes
more than one module charges live here too, so the simulated protocols
and the analytic capacity curve (``bench.estimate``) read one table.
Read them as ``costs.NAME``.
"""

from __future__ import annotations

#: ECDSA P-256 sign, seconds (Go stdlib ≈ 30 µs/op on one vCore).
ECDSA_SIGN = 35e-6

#: ECDSA P-256 verify, seconds (Go stdlib ≈ 90 µs/op).
ECDSA_VERIFY = 95e-6

#: HMAC-SHA256 over a small message, seconds.
MAC_COMPUTE = 1.2e-6

#: MAC verification cost equals recomputation.
MAC_VERIFY = 1.2e-6

#: SHA-256 hashing per ~100-byte payment inside a batch.
HASH_PER_PAYMENT = 0.4e-6

#: Fixed per-message CPU overhead (syscalls, dispatch).
MESSAGE_OVERHEAD = 12e-6

#: Send-side per-message CPU overhead (marshalling + syscall).
SEND_OVERHEAD = 6e-6

#: CPU time per byte for (de)serialization and copying (~0.7 GB/s/core).
PER_BYTE_CPU = 1.5e-9

#: Wire size of an ECDSA P-256 signature (r, s).
SIGNATURE_BYTES = 64

#: Wire size of an HMAC-SHA256 tag.
MAC_BYTES = 32

#: Wire size of a SHA-256 digest.
HASH_BYTES = 32

#: Wire overhead of one protocol message (header fields + authenticator).
HEADER_BYTES = 48

#: Wire size of one payment: spender, beneficiary, amount, sequence
#: number, and client authentication data — "roughly 100 bytes" (§VI-B).
#: A client request carries one.
PAYMENT_BYTES = 100

#: Per-signature wire cost inside a certificate (signature + signer id).
CERT_ENTRY_BYTES = SIGNATURE_BYTES + 8

# ---------------------------------------------------------------------------
# Per-payment CPU costs (Astro and the BFT baseline alike)
# ---------------------------------------------------------------------------

#: CPU time to apply one settled payment (balance/sn/xlog updates).
SETTLE_PER_PAYMENT = 1.5e-6

#: CPU time to ingest one client request at the representative
#: (deserialize + authenticate client data, connection handling,
#: §VI-B).  Calibrated against the paper's N=4 anchors.
INGEST_PER_REQUEST = 35e-6

#: CPU time to produce a client confirmation.
CONFIRM_PER_PAYMENT = 3e-6

# ---------------------------------------------------------------------------
# BFT-SMaRt baseline calibration
# ---------------------------------------------------------------------------
# The baseline's per-message/request CPU costs are the Go model's scaled
# by BFT_OVERHEAD_FACTOR, standing in for the JVM runtime, per-connection
# handling and MAC-vector authenticators of BFT-SMaRt (the paper's
# footnote 1 contrasts 3.5 kLOC of Go against 13.5 kLOC of Java).  The
# factor and the PROPOSE wire amplification are calibrated against the
# paper's Fig. 3 baseline anchors: N=4 ≈ 10K pps, N=100 ≈ 334 pps
# (``bench.fig3``).

#: CPU cost multiplier vs the Go cost model.
BFT_OVERHEAD_FACTOR = 5.0

#: Wire amplification of the leader's large fan-out PROPOSE messages:
#: per-connection framing, JVM serialization, and TCP behaviour over
#: ~N simultaneous streams reduce effective goodput well below the NIC
#: rate.
BFT_PROPOSE_WIRE_AMPLIFICATION = 5.0

#: CPU time per client request at *each* replica (deserialize + MAC),
#: before the overhead factor.
BFT_REQUEST = 15e-6

#: CPU time to emit one client reply.
BFT_REPLY = 4e-6

#: Extra fixed time for a joining/syncing replica to rebuild state during
#: a view change, per re-proposed instance.
BFT_SYNC_PER_INSTANCE = 30e-6

#: Wire size of a WRITE/ACCEPT: header + digest.
BFT_CONTROL_BYTES = 80

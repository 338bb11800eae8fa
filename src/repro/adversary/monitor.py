"""Live safety-invariant monitoring of correct replicas (DESIGN §4).

The :class:`InvariantMonitor` samples the *correct* replicas of a running
system on a simulated-time cadence — during the run, not only at the end —
and asserts the five safety invariants online:

1. **non-negative balances** — no correct replica ever records a negative
   balance;
2. **per-client sequence monotonicity** — each xlog is exactly
   ``1..len``, ``sn[c] == len(xlog[c])`` moves in lockstep, and no xlog
   ever shrinks between samples;
3. **double-spend freedom** — across every correct replica and every
   sample, a payment identifier ``(spender, seq)`` settles with at most
   one ``(beneficiary, amount)``;
4. **conservation of value** — Astro I (and the consensus baseline)
   settle atomically, so each replica's total balance equals its genesis
   total; Astro II never credits directly, so per client
   ``bal[c] == genesis[c] − Σ xlog[c] + Σ materialized dependencies``,
   with each materialized dependency resolved against the crediting
   payment in some correct replica's xlog (an f+1 certificate implies at
   least one correct settler logged it — a dependency no correct replica
   can vouch for is itself a violation);
5. **cross-replica convergence** — within a shard, every correct
   replica's xlog for a client is a prefix of the longest one.

Violations are recorded with their simulated first-violation time;
:meth:`verdict` summarizes for timeline results and
``BENCH_byzantine.json``.

The monitor is strictly read-only, but its sampling events take
``(time, seq)`` keys of their own; byte-identity tests run the attacks
without a monitor and compare histories instead.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["InvariantMonitor"]

#: Stop appending violation records past this many (a broken run can
#: violate at every sample; the first few carry all the signal).
_MAX_RECORDED = 100


class InvariantMonitor:
    """Samples correct replicas of ``system`` every ``interval`` sim-seconds.

    ``byzantine_ids`` are excluded from sampling (their state is allowed
    to be arbitrary).  Crashed correct replicas stay included: their
    frozen state must still satisfy every invariant.  ``until`` bounds
    rescheduling so drain loops (``run_until_idle``) terminate; the
    final post-run state can be checked explicitly with :meth:`sample`.
    """

    def __init__(
        self,
        system: Any,
        interval: float = 1.0,
        byzantine_ids: Sequence[int] = (),
        start: Optional[float] = None,
        until: Optional[float] = None,
        autostart: bool = True,
        dep_grace: int = 0,
    ) -> None:
        self.system = system
        self.interval = float(interval)
        self.byzantine = frozenset(byzantine_ids)
        self.until = until
        #: Samples an unknown dependency may stay unresolved before it is
        #: recorded.  0 (simulator: all replicas sampled at one instant)
        #: records immediately.  Live feeds capture replicas milliseconds
        #: apart, so a dependency materialized mid-round can precede its
        #: crediting payment's appearance in a settler's view by one
        #: sample — ``dep_grace=1`` absorbs exactly that skew.
        self.dep_grace = int(dep_grace)
        self.samples = 0
        self.violations: List[Dict[str, Any]] = []
        self.replicas = [
            system.replica_by_node(node_id)
            for node_id in system.replica_node_ids
            if node_id not in self.byzantine
        ]
        if not self.replicas:
            raise ValueError("no correct replicas left to monitor")
        #: Astro II replicas materialize dependencies (``_used_deps``);
        #: Astro I and the consensus baseline settle atomically.
        self.mode = (
            "deps" if hasattr(self.replicas[0], "_used_deps") else "atomic"
        )
        #: Genesis snapshot per correct replica, taken at construction
        #: (the monitor must be created before the run starts).
        self._genesis = [dict(r.state.balances) for r in self.replicas]
        self._genesis_totals = [sum(g.values()) for g in self._genesis]
        #: Convergence groups: replicas of one shard agree on xlogs.
        self._groups = self._shard_groups()
        #: (replica, client) -> xlog length at the previous sample.
        self._prev_len: Dict[Tuple[int, Any], int] = {}
        #: Global settled-payment index: identifier -> (beneficiary,
        #: amount).  Grows across replicas *and* samples, so a conflicting
        #: late settle is caught against history.
        self._payment_index: Dict[Any, Tuple[Any, int]] = {}
        #: (replica, dep_id) -> sample number first seen unresolved.
        self._dep_pending: Dict[Tuple[int, str], int] = {}
        self._stopped = False
        if autostart:
            first = (start if start is not None else system.sim.now) + self.interval
            system.sim.schedule_at(first, self._tick)
        # With ``autostart=False`` the owner drives :meth:`sample`
        # explicitly (live-cluster feeds have no simulator to tick on;
        # they pass wall-clock ``now`` instead).

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if self._stopped:
            return
        self.sample()
        next_at = self.system.sim.now + self.interval
        if self.until is None or next_at <= self.until + 1e-9:
            self.system.sim.schedule_at(next_at, self._tick)

    def stop(self) -> None:
        self._stopped = True

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, now: Optional[float] = None) -> None:
        """Check all five invariants against current replica state."""
        if now is None:
            now = self.system.sim.now
        self.samples += 1
        for idx, replica in enumerate(self.replicas):
            self._check_balances(now, replica)
            self._check_sequences(now, replica)
            self._index_payments(now, replica)
        for idx, replica in enumerate(self.replicas):
            self._check_conservation(now, idx, replica)
        self._check_convergence(now)

    def first_violation(self) -> Optional[float]:
        return self.violations[0]["time"] if self.violations else None

    def verdict(self) -> Dict[str, Any]:
        """JSON-ready summary for timeline results / BENCH_byzantine."""
        return {
            "ok": not self.violations,
            "samples": self.samples,
            "first_violation": self.first_violation(),
            "violations": [dict(v) for v in self.violations[:10]],
        }

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def _record(self, now: float, invariant: str, **detail: Any) -> None:
        if len(self.violations) < _MAX_RECORDED:
            record: Dict[str, Any] = {"time": now, "invariant": invariant}
            record.update(detail)
            self.violations.append(record)

    def _check_balances(self, now: float, replica: Any) -> None:
        for client, balance in replica.state.balances.items():
            if balance < 0:
                self._record(
                    now, "non_negative", replica=replica.node_id,
                    client=repr(client), balance=balance,
                )

    def _check_sequences(self, now: float, replica: Any) -> None:
        state = replica.state
        for client, log in state.xlogs.items():
            entries = log.entries()
            for position, payment in enumerate(entries):
                if payment.seq != position + 1:
                    self._record(
                        now, "sequence", replica=replica.node_id,
                        client=repr(client), expected=position + 1,
                        got=payment.seq,
                    )
                    break
            if state.seqnums.get(client, 0) != len(entries):
                self._record(
                    now, "sequence", replica=replica.node_id,
                    client=repr(client), seqnum=state.seqnums.get(client, 0),
                    xlog_len=len(entries),
                )
            key = (replica.node_id, client)
            previous = self._prev_len.get(key, 0)
            if len(entries) < previous:
                self._record(
                    now, "sequence", replica=replica.node_id,
                    client=repr(client), shrank_from=previous,
                    shrank_to=len(entries),
                )
            self._prev_len[key] = len(entries)

    def _index_payments(self, now: float, replica: Any) -> None:
        index = self._payment_index
        for client, log in replica.state.xlogs.items():
            for payment in log.entries():
                seen = index.get(payment.identifier)
                effect = (payment.beneficiary, payment.amount)
                if seen is None:
                    index[payment.identifier] = effect
                elif seen != effect:
                    self._record(
                        now, "double_spend", replica=replica.node_id,
                        identifier=repr(payment.identifier),
                        first=repr(seen), second=repr(effect),
                    )

    def _check_conservation(self, now: float, idx: int, replica: Any) -> None:
        state = replica.state
        if self.mode == "atomic":
            total = sum(state.balances.values())
            if total != self._genesis_totals[idx]:
                self._record(
                    now, "conservation", replica=replica.node_id,
                    total=total, genesis=self._genesis_totals[idx],
                )
            return
        genesis = self._genesis[idx]
        used_deps = replica._used_deps
        index = self._payment_index
        for client, initial in genesis.items():
            spent = 0
            log = state.xlogs.get(client)
            if log is not None:
                for payment in log.entries():
                    spent += payment.amount
            credited = 0
            unresolved = 0
            for dep_id in used_deps.get(client, ()):
                effect = index.get(dep_id)
                if effect is None:
                    # No correct replica can (yet) vouch for this
                    # dependency.  Past the grace window it means a
                    # fabricated certificate was materialized.
                    key = (replica.node_id, repr(dep_id))
                    first = self._dep_pending.setdefault(key, self.samples)
                    if self.samples - first >= self.dep_grace:
                        self._record(
                            now, "conservation", replica=replica.node_id,
                            client=repr(client), unknown_dep=repr(dep_id),
                        )
                    unresolved += 1
                    continue
                self._dep_pending.pop((replica.node_id, repr(dep_id)), None)
                credited += effect[1]
            if unresolved and self.dep_grace > 0:
                # Credits cannot be summed yet; re-check next sample.
                continue
            expected = initial - spent + credited
            if state.balances.get(client, 0) != expected:
                self._record(
                    now, "conservation", replica=replica.node_id,
                    client=repr(client), balance=state.balances.get(client, 0),
                    expected=expected,
                )

    def _check_convergence(self, now: float) -> None:
        for group in self._groups:
            clients: Dict[Any, List[Any]] = {}
            for replica in group:
                for client, log in replica.state.xlogs.items():
                    if len(log):
                        clients.setdefault(client, []).append(log)
            for client, logs in clients.items():
                reference = max(logs, key=len)
                for log in logs:
                    if log is reference:
                        continue
                    if not log.is_prefix_of(reference):
                        self._record(
                            now, "convergence", client=repr(client),
                            lengths=[len(entry) for entry in logs],
                        )
                        break

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _shard_groups(self) -> List[List[Any]]:
        directory = getattr(self.system, "directory", None)
        if directory is None:
            return [list(self.replicas)]
        groups: Dict[Any, List[Any]] = {}
        for replica in self.replicas:
            shard = directory.shard_of_replica(replica.node_id)
            groups.setdefault(shard, []).append(replica)
        return list(groups.values())

"""Safety-invariant monitoring of correct replicas.

The :class:`InvariantMonitor` checks *views* of the correct replicas
during a run, not only at its end.  A view (:func:`replica_state_view`)
is its one input on both backends: the simulator takes views from the
replica objects on a simulated-time cadence (:meth:`~InvariantMonitor.watch`);
the live cluster's parent receives them as the ``"state"`` reading and
hands them to :meth:`~InvariantMonitor.sample`.  Every sample asserts:

1. **non-negative balances** — no correct replica ever records a negative
   balance;
2. **per-client sequence monotonicity** — each xlog is exactly
   ``1..len`` (a view's xlog is columns whose positions are the seqs),
   ``sn[c] == len(xlog[c])`` moves in lockstep, and no xlog ever shrinks
   between samples;
3. **double-spend freedom** — across every correct replica and every
   sample, a payment identifier ``(spender, seq)`` settles with at most
   one ``(beneficiary, amount)``;
4. **conservation of value** — Astro I (and the consensus baseline)
   settle atomically, so each replica's total balance equals its genesis
   total; Astro II never credits directly, so per client (in genesis or
   holding a balance) ``bal[c] == genesis[c] − Σ xlog[c] + Σ materialized
   dependencies``, with each materialized dependency resolved against the
   crediting payment in some correct replica's xlog (an f+1 certificate
   implies at least one correct settler logged it — a dependency no
   correct replica can vouch for is itself a violation);
5. **cross-replica convergence** — within a shard, every correct
   replica's xlog for a client is a prefix of the longest one.

A replica missing from a sample keeps its last view: a crashed correct
replica's frozen state must still satisfy every invariant.  Violations
are recorded with their first-violation time; :meth:`verdict`
summarizes for timeline results, live reports and
``BENCH_byzantine.json``.  The monitor is strictly read-only, but
:meth:`~InvariantMonitor.watch`'s sampling events take ``(time, seq)``
keys of their own; byte-identity tests run the attacks without a
monitor and compare histories instead.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.xlog import columns_prefix

__all__ = ["InvariantMonitor", "genesis_view", "replica_state_view"]

#: Stop appending violation records past this many (a broken run can
#: violate at every sample; the first few carry all the signal).
_MAX_RECORDED = 100

View = Dict[str, Any]


def replica_state_view(replica: Any) -> View:
    """Picklable capture of what the monitor checks of ``replica``:
    ``balances`` and ``seqnums`` (client → int), ``xlogs`` (client →
    :meth:`~repro.core.xlog.ExclusiveLog.columns`: the beneficiaries, the
    amounts and the dependencies by seq) and, for Astro II, ``used_deps``
    (client → the dependency ids it materialized)."""
    state = replica.state
    view: View = {
        "balances": dict(state.balances.items()),
        "seqnums": dict(state.seqnums.items()),
        "xlogs": {owner: log.columns() for owner, log in state.xlogs.items()},
    }
    used_deps = getattr(replica, "_used_deps", None)
    if used_deps is not None:
        view["used_deps"] = {c: tuple(deps) for c, deps in used_deps.items()}
    return view


def genesis_view(balances: Dict[Any, int], deps: bool) -> View:
    """The view of a replica that has settled nothing yet (``deps``:
    an Astro II one)."""
    view: View = {"balances": dict(balances), "seqnums": {}, "xlogs": {}}
    if deps:
        view["used_deps"] = {}
    return view


class InvariantMonitor:
    """Checks the five invariants over views of the correct replicas.

    ``genesis`` maps each correct replica's node id to its view before
    the run: the baseline conservation is checked against, and the view
    a replica keeps until one of its own arrives.  Views with
    ``used_deps`` are Astro II's; the others settle atomically.
    ``directory`` groups replicas by shard for convergence (``None``:
    one group).
    """

    def __init__(
        self,
        genesis: Dict[int, View],
        directory: Any = None,
        dep_grace: int = 0,
    ) -> None:
        if not genesis:
            raise ValueError("no correct replicas left to monitor")
        #: Samples an unknown dependency may stay unresolved before it is
        #: recorded.  0 (simulator: all replicas sampled at one instant)
        #: records immediately.  Live views are captured milliseconds
        #: apart, so a dependency materialized mid-round can precede its
        #: crediting payment's appearance in a settler's view by one
        #: sample — ``dep_grace=1`` absorbs exactly that skew.
        self.dep_grace = int(dep_grace)
        self.samples = 0
        self.violations: List[Dict[str, Any]] = []
        #: The last view of every correct replica, by node id.
        self._views = dict(genesis)
        self.mode = (
            "deps" if "used_deps" in next(iter(genesis.values())) else "atomic"
        )
        self._genesis = {
            node_id: dict(view["balances"]) for node_id, view in genesis.items()
        }
        #: Convergence groups: replicas of one shard agree on xlogs.
        groups: Dict[Any, List[int]] = {}
        for node_id in self._views:
            shard = directory.shard_of_replica(node_id) if directory else None
            groups.setdefault(shard, []).append(node_id)
        self._groups = list(groups.values())
        #: Global settled-payment index: spender -> the (beneficiaries,
        #: amounts) columns first seen for each seq.  Grows across
        #: replicas *and* samples, so a conflicting late settle is caught
        #: against history.
        self._payment_index: Dict[Any, Tuple[tuple, Any]] = {}
        #: (replica, dep_id) -> sample number first seen unresolved.
        self._dep_pending: Dict[Tuple[int, str], int] = {}
        #: What :meth:`watch` samples: replica objects and their clock.
        self.replicas: List[Any] = []
        self._sim: Any = None
        self._stopped = False

    # ------------------------------------------------------------------
    # The simulator's cadence
    # ------------------------------------------------------------------
    @classmethod
    def watch(
        cls,
        system: Any,
        interval: float = 1.0,
        byzantine_ids: Sequence[int] = (),
        until: Optional[float] = None,
    ) -> "InvariantMonitor":
        """Monitor a simulated ``system`` every ``interval`` sim-seconds.

        ``byzantine_ids`` are not sampled (their state is allowed to be
        arbitrary); crashed correct replicas are.  ``until`` bounds
        rescheduling so drain loops (``run_until_idle``) terminate; the
        final post-run state is checked with :meth:`sample_replicas`.
        Create it before the run starts: the current views are genesis.
        """
        byzantine = frozenset(byzantine_ids)
        replicas = [
            system.replica_by_node(node_id)
            for node_id in system.replica_node_ids
            if node_id not in byzantine
        ]
        monitor = cls(
            {r.node_id: replica_state_view(r) for r in replicas},
            getattr(system, "directory", None),
        )
        monitor.replicas = replicas
        sim = monitor._sim = system.sim
        interval = float(interval)

        def tick() -> None:
            if monitor._stopped:
                return
            monitor.sample_replicas()
            next_at = sim.now + interval
            if until is None or next_at <= until + 1e-9:
                sim.schedule_at(next_at, tick)

        sim.schedule_at(sim.now + interval, tick)
        return monitor

    def sample_replicas(self) -> None:
        """:meth:`sample` the replicas :meth:`watch` attached, now."""
        self.sample(
            self._sim.now,
            {r.node_id: replica_state_view(r) for r in self.replicas},
        )

    def stop(self) -> None:
        """End :meth:`watch`'s cadence."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, now: float, views: Dict[int, View]) -> None:
        """Check all five invariants at ``now``.  ``views`` maps node ids
        to fresh views; a correct replica missing from it keeps its last
        view, and a view of any other node is ignored."""
        current = self._views
        previous = dict(current)
        for node_id, view in views.items():
            if node_id in current:
                current[node_id] = view
        self.samples += 1
        for node_id, view in current.items():
            self._check_balances(now, node_id, view)
            self._check_sequences(now, node_id, view, previous[node_id])
            self._index_payments(now, node_id, view)
        for node_id, view in current.items():
            self._check_conservation(now, node_id, view)
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

    def _check_balances(self, now: float, node_id: int, view: View) -> None:
        for client, balance in view["balances"].items():
            if balance < 0:
                self._record(
                    now, "non_negative", replica=node_id,
                    client=repr(client), balance=balance,
                )

    def _check_sequences(
        self, now: float, node_id: int, view: View, previous: View
    ) -> None:
        seqnums = view["seqnums"]
        before = previous["xlogs"]
        for client, (beneficiaries, _, _) in view["xlogs"].items():
            size = len(beneficiaries)
            if seqnums.get(client, 0) != size:
                self._record(
                    now, "sequence", replica=node_id,
                    client=repr(client), seqnum=seqnums.get(client, 0),
                    xlog_len=size,
                )
            if client in before and size < len(before[client][0]):
                self._record(
                    now, "sequence", replica=node_id,
                    client=repr(client), shrank_from=len(before[client][0]),
                    shrank_to=size,
                )

    def _index_payments(self, now: float, node_id: int, view: View) -> None:
        index = self._payment_index
        for client, (beneficiaries, amounts, _) in view["xlogs"].items():
            known, known_amounts = index.get(client, ((), amounts[:0]))
            size = min(len(known), len(beneficiaries))
            if (
                beneficiaries[:size] != known[:size]
                or amounts[:size] != known_amounts[:size]
            ):
                for seq in range(1, size + 1):
                    seen = (known[seq - 1], known_amounts[seq - 1])
                    effect = (beneficiaries[seq - 1], amounts[seq - 1])
                    if seen != effect:
                        self._record(
                            now, "double_spend", replica=node_id,
                            identifier=repr((client, seq)),
                            first=repr(seen), second=repr(effect),
                        )
            if len(beneficiaries) > len(known):
                index[client] = (
                    known + beneficiaries[size:],
                    known_amounts + amounts[size:],
                )

    def _check_conservation(self, now: float, node_id: int, view: View) -> None:
        balances = view["balances"]
        genesis = self._genesis[node_id]
        if self.mode == "atomic":
            total = sum(balances.values())
            if total != sum(genesis.values()):
                self._record(
                    now, "conservation", replica=node_id,
                    total=total, genesis=sum(genesis.values()),
                )
            return
        xlogs = view["xlogs"]
        used_deps = view["used_deps"]
        index = self._payment_index
        # Genesis clients first, then any other client holding a balance:
        # a balance minted for a client outside genesis is no less a
        # violation.
        for client in {**genesis, **balances}:
            spent = sum(xlogs[client][1]) if client in xlogs else 0
            credited = 0
            unresolved = 0
            for dep_id in used_deps.get(client, ()):
                spender, seq = dep_id
                amounts = index.get(spender, ((), ()))[1]
                if not 0 < seq <= len(amounts):
                    # No correct replica can (yet) vouch for this
                    # dependency.  Past the grace window it means a
                    # fabricated certificate was materialized.
                    key = (node_id, repr(dep_id))
                    first = self._dep_pending.setdefault(key, self.samples)
                    if self.samples - first >= self.dep_grace:
                        self._record(
                            now, "conservation", replica=node_id,
                            client=repr(client), unknown_dep=repr(dep_id),
                        )
                    unresolved += 1
                    continue
                self._dep_pending.pop((node_id, repr(dep_id)), None)
                credited += amounts[seq - 1]
            if unresolved and self.dep_grace > 0:
                # Credits cannot be summed yet; re-check next sample.
                continue
            expected = genesis.get(client, 0) - spent + credited
            if balances.get(client, 0) != expected:
                self._record(
                    now, "conservation", replica=node_id,
                    client=repr(client), balance=balances.get(client, 0),
                    expected=expected,
                )

    def _check_convergence(self, now: float) -> None:
        for group in self._groups:
            clients: Dict[Any, List[Tuple[Any, ...]]] = {}
            for node_id in group:
                for client, log in self._views[node_id]["xlogs"].items():
                    if log[0]:
                        clients.setdefault(client, []).append(log)
            for client, logs in clients.items():
                longest = max(logs, key=lambda log: len(log[0]))
                for log in logs:
                    if log != columns_prefix(longest, len(log[0])):
                        self._record(
                            now, "convergence", client=repr(client),
                            lengths=[len(entry[0]) for entry in logs],
                        )
                        break

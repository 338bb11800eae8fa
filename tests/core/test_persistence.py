"""Durable replica state: WAL framing, checkpoints, replay, catch-up.

Each test drives the persistence layer the way the live cluster does —
including the ugly parts: torn tails from a SIGKILL landing mid-write,
checkpoint corruption, and fingerprint divergence during replay.  The
full-system round trips bind a store to a *simulated* replica (the
protocol objects are transport-agnostic), run a workload, then rebuild
a fresh system and recover the replica purely from disk.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.systems import SYSTEM_BUILDERS, client_ids_of
from repro.brb.batching import Batch
from repro.brb.bracha import BrbEcho, BrbPrepare
from repro.brb.signed import SbAck, SbPrepare
from repro.core.astro2 import Astro2Replica
from repro.core import persistence
from repro.core.dependencies import certificates_of, reference_pairs
from repro.core.payment import Payment
from repro.core.persistence import (
    CATCH_UP_MAX_BATCHES,
    HISTORIES,
    CatchUpRequest,
    ReplicaStore,
    WalCorruption,
    WriteAheadLog,
    serve_catch_up,
    state_fingerprint,
    state_fingerprints,
)
from repro.crypto import costs
from repro.transport.framing import FrameError, encode_frame


def settle_full(state, payment):
    """Listing 4 for one ``Payment``: the settle step, depositing."""
    index = state.index(payment.spender)
    assert state.try_settle_spend(index, payment.core, payment.deps, True)


# ---------------------------------------------------------------------------
# WAL: framing round trip, torn tails, truncation on reopen
# ---------------------------------------------------------------------------
def test_wal_roundtrip(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "test.wal"))
    wal.open_for_append()
    records = [("launch", 1, "batch-a"), ("deliver", 2, 1, "batch-b")]
    for record in records:
        wal.append(record)
    wal.close()

    scanned, valid = wal.scan()
    assert scanned == records
    assert valid > 0
    assert list(wal.iter_records()) == records


def test_wal_tolerates_torn_tail_and_truncates_on_reopen(tmp_path):
    path = tmp_path / "torn.wal"
    wal = WriteAheadLog(str(path))
    wal.open_for_append()
    wal.append(("deliver", 0, 1, "ok"))
    wal.close()
    intact = path.read_bytes()

    # A SIGKILL mid-write leaves a complete header but truncated body.
    with open(path, "ab") as fh:
        fh.write(b"\x00\x00\x01\x00" + b"half a record")
    scanned, valid = wal.scan()
    assert scanned == [("deliver", 0, 1, "ok")]
    assert valid == len(intact)

    # Reopening for append truncates the torn tail before new records.
    count = wal.open_for_append()
    assert count == 1
    wal.append(("deliver", 0, 2, "next"))
    wal.close()
    assert list(wal.iter_records()) == [
        ("deliver", 0, 1, "ok"),
        ("deliver", 0, 2, "next"),
    ]


def test_wal_stops_at_corrupt_header(tmp_path):
    """A header no append writes is not a torn tail, even at the end of
    the file: the scan raises instead of reading it as the end."""
    path = tmp_path / "corrupt.wal"
    wal = WriteAheadLog(str(path))
    wal.open_for_append()
    wal.append(("a",))
    wal.close()
    with open(path, "ab") as fh:
        fh.write(b"\xff\xff\xff\xff" + b"garbage beyond a huge header")
    with pytest.raises(WalCorruption, match="4294967295-byte header"):
        wal.scan()


def _record_offset(path, index):
    """Byte offset of WAL record ``index`` (which must exist)."""
    with open(path, "rb") as fh:
        data = fh.read()
    offset = 0
    for _ in range(index):
        offset += 4 + int.from_bytes(data[offset : offset + 4], "big")
    assert offset + 4 <= len(data)
    return offset


def _set_record_header(path, index, header):
    """Overwrite the header of WAL record ``index`` in place."""
    offset = _record_offset(path, index)
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write(header)


@pytest.mark.parametrize(
    "header",
    [b"\xff\xff\xff\xff", bytes(4), b"\x00\x00\x00\x05"],
    ids=["oversized", "zero", "unpickleable"],
)
def test_wal_damaged_mid_file_is_refused_untouched(tmp_path, header):
    """A bad header, a zero one, or a complete body that does not
    unpickle, in the middle of the log: reopening raises and truncates
    nothing (it used to read two records and cut the file to them)."""
    path = tmp_path / "damaged.wal"
    wal = WriteAheadLog(str(path))
    wal.open_for_append()
    for index in range(10):
        wal.append(("deliver", 0, index, "payload"))
    wal.close()
    size = os.path.getsize(path)
    _set_record_header(path, 2, header)
    with pytest.raises(WalCorruption, match="at byte"):
        wal.open_for_append()
    assert os.path.getsize(path) == size
    with pytest.raises(WalCorruption):
        list(wal.iter_records())


# ---------------------------------------------------------------------------
# ReplicaStore: recording gate, checkpoint stamp, corruption
# ---------------------------------------------------------------------------
def test_store_records_only_after_finish_recovery(tmp_path):
    store = ReplicaStore(str(tmp_path), 0)
    store.record(("deliver", 0, 1, "ignored"))  # recovery in progress
    assert store.recover() == (None, [])
    store.finish_recovery()
    store.record(("deliver", 0, 1, "kept"))
    store.close()
    assert ReplicaStore(str(tmp_path), 0).recover() == (
        None,
        [("deliver", 0, 1, "kept")],
    )


def test_store_snapshot_covers_the_records_before_it(tmp_path):
    """A checkpoint is a record of the WAL: recovery restores it and
    replays only what was logged after it."""
    store = ReplicaStore(str(tmp_path), 3, snapshot_interval=2)
    store.finish_recovery()
    store.record(("deliver", 0, 1, "x"))
    store.record(("deliver", 0, 2, "y"))
    assert store.snapshot_due()
    store.write_snapshot({"fingerprint": "abc"})
    assert not store.snapshot_due()
    store.record(("deliver", 0, 3, "z"))
    store.close()
    assert ReplicaStore(str(tmp_path), 3).recover() == (
        {"fingerprint": "abc"},
        [("deliver", 0, 3, "z")],
    )
    assert not os.path.exists(tmp_path / "replica-3.snap")


def test_store_corrupt_snapshot_is_a_hard_error(tmp_path):
    store = ReplicaStore(str(tmp_path), 1)
    store.finish_recovery()
    store.wal.append(("checkpoint", b"not a pickle"))
    store.close()
    with pytest.raises(WalCorruption, match="checkpoint"):
        ReplicaStore(str(tmp_path), 1).recover()


def test_fingerprint_intervals(tmp_path):
    store = ReplicaStore(str(tmp_path), 0, fingerprint_interval=3)
    store.finish_recovery()
    for seq in range(1, 4):
        store.record(("deliver", 0, seq, "p"))
    assert store.fingerprint_due()
    store.record_fingerprint("f" * 64)
    assert not store.fingerprint_due()
    store.close()


# ---------------------------------------------------------------------------
# Checkpoints in the WAL: grow-only histories as tails
# ---------------------------------------------------------------------------
def _frame_spans(path):
    """``(offset, length)`` of each length-framed record in ``path``."""
    if not os.path.exists(path):
        return []
    with open(path, "rb") as fh:
        data = fh.read()
    spans, offset = [], 0
    while offset + 4 <= len(data):
        length = int.from_bytes(data[offset : offset + 4], "big")
        spans.append((offset, length))
        offset += 4 + length
    return spans


def _checkpoints(store):
    """How many checkpoint records ``store``'s WAL holds."""
    records = store.wal.iter_records()
    return sum(1 for record in records if record[0] == "checkpoint")


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("xlog"), st.integers(0, 3)),
        st.tuples(st.just("seen"), st.integers(0, 10**6)),
        st.tuples(st.just("dep"), st.integers(0, 2)),
        st.tuples(st.just("record"), st.integers(0, 9)),
        st.tuples(st.just("checkpoint"), st.integers(0, 9)),
    ),
    max_size=40,
)


def _expected_recovery(entries):
    """What :meth:`ReplicaStore.recover` returns over the log ``entries``:
    the last checkpoint's capture and the records after it."""
    capture, records = None, []
    for kind, value in entries:
        if kind == "checkpoint":
            capture, records = value, []
        else:
            records.append(value)
    return capture, records


@settings(max_examples=60, deadline=None)
@given(
    ops=_OPS,
    ending=st.sampled_from(["clean", "torn", "damaged"]),
    cut=st.integers(1, 10**6),
)
def test_checkpoint_log_folds_to_the_last_complete_checkpoint(
    ops, ending, cut
):
    """Any interleaving of records, history growth (lists, arrays and
    dicts; the ACK guard's map is head state) and checkpoints in one WAL
    recovers to exactly the capture of the last complete checkpoint and
    the records after it.  A torn last record — a checkpoint or not —
    leaves the log before it standing (and is cut off by the next
    append); a damaged header mid-file is refused outright."""
    xlogs = {f"owner-{k}": [] for k in range(4)}
    seen, used, head = {}, {}, 0

    def capture():
        grown = {o: e for o, e in xlogs.items() if e}
        return {
            "account": {
                "format": 3,
                "balances": bytes([head]) * 8,
                "xlog_beneficiaries": {o: list(e) for o, e in grown.items()},
                "xlog_amounts": {
                    o: array("q", range(len(e))) for o, e in grown.items()
                },
                "xlog_deps": {
                    o: {s: ("cert", s) for s in range(3, len(e) + 1, 3)}
                    for o, e in grown.items() if len(e) >= 3
                },
            },
            "seen_payments": dict(seen),
            "used_deps": {c: dict(d) for c, d in used.items()},
            "counter": head,
        }

    with tempfile.TemporaryDirectory() as root:
        store = ReplicaStore(root, 0)
        store.finish_recovery()
        entries = []  # the log, as ("record" | "checkpoint", value)
        for op, value in ops:
            if op == "xlog":
                owner = f"owner-{value}"
                xlogs[owner].append((owner, len(xlogs[owner]) + 1))
            elif op == "seen":
                seen.setdefault(("id", value), ("core", value))
            elif op == "dep":
                deps = used.setdefault(f"client-{value}", {})
                deps[("dep", len(seen))] = None
            elif op == "record":
                record = ("deliver", 0, len(entries), "b" * value)
                store.record(record)
                entries.append(("record", record))
            else:
                head = value
                store.write_snapshot(capture())
                entries.append(("checkpoint", capture()))
        store.close()
        spans = _frame_spans(store.wal.path)
        assert len(spans) == len(entries)

        if ending == "torn" and entries:
            offset, length = spans[-1]
            with open(store.wal.path, "r+b") as fh:
                fh.truncate(offset + cut % (4 + length))
            entries.pop()
        elif ending == "damaged" and len(entries) > 1:
            offset, _ = spans[cut % (len(spans) - 1)]
            with open(store.wal.path, "r+b") as fh:
                fh.seek(offset)
                fh.write(b"\xff\xff\xff\xff" if cut % 2 else bytes(4))
            with pytest.raises(WalCorruption, match="write-ahead log"):
                ReplicaStore(root, 0).recover()
            return
        reopened = ReplicaStore(root, 0)
        assert reopened.recover() == _expected_recovery(entries)

        # The next checkpoint continues the fold (a torn record is cut off).
        reopened.finish_recovery()
        head = 10
        reopened.write_snapshot(capture())
        reopened.record(("deliver", 1, 1, "after"))
        reopened.close()
        assert ReplicaStore(root, 0).recover() == (
            capture(),
            [("deliver", 1, 1, "after")],
        )


def test_a_store_from_before_the_one_log_replays_its_whole_wal(tmp_path):
    """A store written when checkpoints lived in a ``replica-N.snap``
    beside the WAL: its WAL holds no checkpoint, so recovery replays all
    of it to the pre-crash state and leaves the ``.snap`` untouched.  The
    next checkpoint goes into the WAL."""
    system = SYSTEM_BUILDERS["astro2"](4, seed=5)
    _bind_all(system, tmp_path, snapshot_interval=10_000)
    _run_workload(system, 12)
    writer = system.replicas[0]
    before = state_fingerprint(writer.state)
    logged = writer._wal.wal.count
    data = dict(writer._snapshot_data(), wal_count=logged)
    for replica in system.replicas:
        replica._wal.close()
    snap = tmp_path / f"replica-{writer.node_id}.snap"
    snap.write_bytes(encode_frame(("checkpoint", data, {})))
    parent_snap = snap.read_bytes()

    rebuilt = SYSTEM_BUILDERS["astro2"](4, seed=5).replicas[0]
    store = ReplicaStore(str(tmp_path), rebuilt.node_id)
    report = rebuilt.bind_persistence(store)
    assert not report.had_snapshot and report.replayed == logged > 0
    assert report.fingerprint == before
    _assert_projections_derived([rebuilt])
    store.write_snapshot(rebuilt._snapshot_data())
    store.close()
    assert snap.read_bytes() == parent_snap

    again = SYSTEM_BUILDERS["astro2"](4, seed=5).replicas[0]
    report = again.bind_persistence(ReplicaStore(str(tmp_path), again.node_id))
    assert report.had_snapshot and report.replayed == 0
    assert report.fingerprint == before
    assert snap.read_bytes() == parent_snap


def test_checkpoint_bytes_do_not_grow_with_history(tmp_path):
    """Every client pays its whole balance around a ring, round after
    round: each payment spends the certificate the previous round earned,
    so nothing but history accumulates.  The last checkpoint record is no
    bigger than the second."""
    system = SYSTEM_BUILDERS["astro2"](4, seed=5)
    _bind_all(system, tmp_path, snapshot_interval=16)
    clients = client_ids_of(system)
    amount = system.genesis[clients[0]]
    for _ in range(40):
        for index, client in enumerate(clients):
            system.submit(client, clients[(index + 1) % len(clients)], amount)
        system.settle_all()
        _assert_projections_derived(system.replicas)
    assert not system.replicas[0].rejected
    assert system.replicas[0]._used_deps  # certificates were spent
    frames = [
        len(record[1])
        for record in system.replicas[0]._wal.wal.iter_records()
        if record[0] == "checkpoint"
    ]
    assert len(frames) >= 12
    assert frames[-1] <= 1.5 * frames[1], frames


@pytest.mark.parametrize("interval", [10_000, 4])
def test_recovery_unpickles_each_wal_record_once(
    interval, tmp_path, monkeypatch
):
    """``bind_persistence`` reads the WAL once: the append side starts
    from the replay scan's count and length instead of a second scan.
    A checkpoint's ``body`` is unpickled a second time, to fold it."""
    system = SYSTEM_BUILDERS["astro2"](4, seed=5)
    _bind_all(system, tmp_path, snapshot_interval=interval)
    for _ in range(4):
        _run_workload(system, 12)
    for replica in system.replicas:
        replica._wal.close()
    victim = system.replicas[0]
    records, _ = WriteAheadLog(victim._wal.wal.path).scan()
    frames = _checkpoints(victim._wal)
    assert len(records) > 8 and (frames > 0) == (interval < len(records))

    rebuilt = SYSTEM_BUILDERS["astro2"](4, seed=5).replicas[0]
    loads, real_loads = [], pickle.loads
    monkeypatch.setattr(
        pickle, "loads", lambda data: loads.append(1) or real_loads(data)
    )
    report = rebuilt.bind_persistence(
        ReplicaStore(str(tmp_path), rebuilt.node_id)
    )
    monkeypatch.undo()
    _assert_projections_derived([rebuilt])
    assert report.had_snapshot == (frames > 0)
    assert len(loads) == len(records) + frames
    # ... and still appends after what it read.
    rebuilt._wal.record(("fp", "x"))
    rebuilt._wal.close()
    assert len(WriteAheadLog(victim._wal.wal.path).scan()[0]) == (
        len(records) + 1
    )


# ---------------------------------------------------------------------------
# Fingerprint formula parity with the per-system determinism witness
# ---------------------------------------------------------------------------
def test_state_fingerprint_matches_shard_formula():
    system = SYSTEM_BUILDERS["astro1"](4, seed=9)
    clients = client_ids_of(system)
    for index in range(12):
        system.submit(clients[index % 4], clients[(index + 1) % 4], 5)
    system.settle_all()
    expected = state_fingerprints(system)
    for replica in system.replicas:
        assert state_fingerprint(replica.state) == expected[replica.node_id]


# ---------------------------------------------------------------------------
# Account-state captures: the format-5 array encoding, and nothing else
# ---------------------------------------------------------------------------
def _populated_state():
    from repro.core.accounts import AccountState
    from repro.core.payment import Payment

    state = AccountState({f"client-{i}": 100 for i in range(6)})
    settle_full(state, Payment("client-2", 1, "client-0", 7))
    settle_full(state, Payment("client-2", 2, "client-4", 3))
    state.add_client("late", 40)
    state.credit("client-1", 11)
    settle_full(state, Payment("late", 1, "client-5", 5))
    return state


def test_array_snapshot_roundtrip_format5():
    from repro.core.accounts import AccountState
    from repro.core.persistence import (
        restore_account_state,
        snapshot_account_state,
    )

    state = _populated_state()
    payload = pickle.loads(pickle.dumps(snapshot_account_state(state)))
    assert payload["format"] == 5
    # Genesis accounts ship as raw slab bytes, not per-client entries.
    assert isinstance(payload["balances"], bytes)
    assert len(payload["balances"]) == 8 * payload["genesis_len"]
    # The post-genesis members: one (client, balance, seqnum) list.
    assert payload["extras"] == [("late", 35, 1)]
    # Xlogs ship as their columns, not as payments.
    assert payload["xlog_beneficiaries"]["client-2"] == ["client-0", "client-4"]
    assert payload["xlog_amounts"]["client-2"] == array("q", [7, 3])

    target = AccountState({f"client-{i}": 100 for i in range(6)})
    restore_account_state(target, payload)
    assert target.snapshot() == state.snapshot()
    assert state_fingerprint(target) == state_fingerprint(state)
    assert list(target.xlog("client-2")) == list(state.xlog("client-2"))
    assert target.balance("late") == state.balance("late")


def test_array_snapshot_rejects_mismatched_genesis():
    from repro.core.accounts import AccountState
    from repro.core.persistence import (
        restore_account_state,
        snapshot_account_state,
    )

    payload = snapshot_account_state(_populated_state())
    other = AccountState({f"other-{i}": 100 for i in range(6)})
    with pytest.raises(WalCorruption, match="genesis"):
        restore_account_state(other, payload)


@pytest.mark.parametrize("tag", ["missing", 1, 2, 3, 4, "5"])
def test_snapshot_unsupported_format_rejected_untouched(tag):
    from repro.core.persistence import (
        restore_account_state,
        snapshot_account_state,
    )

    payload = snapshot_account_state(_populated_state())
    if tag == "missing":
        # The shape of a pre-slab (format-1) capture: plain dicts, no tag.
        payload = {"balances": {}, "seqnums": {}, "xlogs": {}}
    else:
        payload["format"] = tag
    target = _populated_state()
    before = state_fingerprint(target)
    with pytest.raises(WalCorruption, match="unsupported snapshot format"):
        restore_account_state(target, payload)
    assert state_fingerprint(target) == before  # refused, not half-applied


# ---------------------------------------------------------------------------
# Full replay round trips: run → crash (drop everything) → rebuild
# ---------------------------------------------------------------------------
def _run_workload(system, payments):
    clients = client_ids_of(system)
    for index in range(payments):
        system.submit(clients[index % len(clients)],
                      clients[(index + 1) % len(clients)], 1)
    system.settle_all()


def _bind_all(system, root, **kwargs):
    """Bind a store to every replica with the simulated network muted.

    A live transport that has not started yet drops what replay sends;
    the simulator would deliver it, and the rebuilt replicas' replayed
    CREDITs would then reach collectors whose dedup entries have retired
    and mint certificates a second time — an artifact of rebuilding a
    whole simulated system, not of recovery.  The simulator's own crash
    model is ROADMAP item 2."""
    network = system.network
    network.send = network.broadcast = network.send_each = (
        lambda *_args, **_kw: None
    )
    try:
        reports = {}
        for replica in system.replicas:
            store = ReplicaStore(str(root), replica.node_id, **kwargs)
            reports[replica.node_id] = replica.bind_persistence(store)
    finally:
        del network.send, network.broadcast, network.send_each
    _assert_projections_derived(system.replicas)
    return reports


def _assert_projections_derived(replicas):
    """Each Astro II representative's projections are what its durable
    facts say: settled balance, less its clients' unsettled spends, plus
    the unspent certificates riding them (attached), plus the pending
    certificates (projected) — none of which is spent already."""
    for replica in replicas:
        if not isinstance(replica, Astro2Replica):
            continue
        unsettled = [
            payment
            for queue in replica._awaiting_seq.values()
            for payment in queue.values()
        ]
        unsettled += [
            payment
            for batch in [*replica._launched_pending.values(),
                          *replica._batch_backlog]
            for payment in batch
        ]
        unsettled += replica.batcher._pending  # released, not yet launched
        represented = replica.directory.rep_map.items()
        for client in [c for c, rep in represented if rep == replica.node_id]:
            used = replica._used_deps.get(client, {})
            spends = [p for p in unsettled if p.spender == client]
            riding = {
                cert.dep_id: cert.amount
                for payment in spends
                for cert in payment.deps
                if cert.dep_id not in used
            }
            pending = list(reference_pairs(replica._deps.get(client, [])))
            assert not any(rec.dep_id(pos) in used for rec, pos in pending)
            assert not any(rec.dep_id(pos) in riding for rec, pos in pending)
            attached = (
                replica.state.balance(client)
                - sum(payment.amount for payment in spends)
                + sum(riding.values())
            )
            projected = attached + sum(rec.amount(pos) for rec, pos in pending)
            assert replica._attached_projection.get(client, 0) == attached
            assert replica._projected.get(client, 0) == projected


@pytest.mark.parametrize("name", ["astro1", "astro2"])
def test_replica_replays_to_precrash_fingerprint(name, tmp_path):
    system = SYSTEM_BUILDERS[name](4, seed=5)
    fresh = _bind_all(system, tmp_path, snapshot_interval=4,
                      fingerprint_interval=2)
    assert all(not r.had_snapshot and r.replayed == 0 for r in fresh.values())
    _run_workload(system, 24)
    before = {
        r.node_id: state_fingerprint(r.state) for r in system.replicas
    }
    settled = {r.node_id: r.settled_count for r in system.replicas}
    for replica in system.replicas:  # crash: drop all in-memory state
        replica._wal.close()

    rebuilt = SYSTEM_BUILDERS[name](4, seed=5)
    reports = _bind_all(rebuilt, tmp_path, snapshot_interval=4,
                        fingerprint_interval=2)
    for replica in rebuilt.replicas:
        report = reports[replica.node_id]
        assert report.fingerprint == before[replica.node_id]
        assert state_fingerprint(replica.state) == before[replica.node_id]
        assert replica.settled_count == settled[replica.node_id]
        # Snapshots actually kicked in: not everything was replayed.
        assert report.had_snapshot


@pytest.mark.parametrize("name", ["astro1", "astro2"])
def test_replay_without_snapshot_covers_whole_log(name, tmp_path):
    system = SYSTEM_BUILDERS[name](4, seed=6)
    _bind_all(system, tmp_path, snapshot_interval=10_000)
    _run_workload(system, 12)
    before = state_fingerprint(system.replicas[0].state)
    system.replicas[0]._wal.close()

    rebuilt = SYSTEM_BUILDERS[name](4, seed=6)
    replica = rebuilt.replicas[0]
    report = replica.bind_persistence(
        ReplicaStore(str(tmp_path), replica.node_id)
    )
    assert not report.had_snapshot
    assert report.replayed > 0
    assert state_fingerprint(replica.state) == before
    _assert_projections_derived([replica])


def _votes_for(replica, prepare_type, batch):
    """The votes ``replica`` sends for ``batch`` PREPAREd by replica 0 as
    its broadcast 1; sends are recorded, not delivered."""
    node = replica.brb.node
    sent = []
    node.send = node.broadcast = lambda _dst, message, *_a, **_kw: (
        sent.append(message)
    )
    size = costs.HEADER_BYTES + batch.size_bytes
    replica.brb._handle_prepare(0, prepare_type(1, batch, size))
    return sent


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: ACK/ECHO are not durable before they leave",
)
@pytest.mark.parametrize(
    "name, prepare_type, vote_type",
    [("astro2", SbPrepare, SbAck), ("astro1", BrbPrepare, BrbEcho)],
)
def test_a_recovered_replica_keeps_the_promise_it_made(
    name, prepare_type, vote_type, tmp_path
):
    """Replica 1 votes for A from replica 0, and not for A' (same
    spender and seq, another beneficiary); crashed and recovered, it must
    still refuse A'.  One amnesiac correct replica in the intersection of
    two quorums is enough for both payloads to deliver."""
    system = SYSTEM_BUILDERS[name](4, seed=5)
    _bind_all(system, tmp_path)
    clients = client_ids_of(system)
    spender = [c for c in clients if system.directory.rep_of(c) == 0][0]
    first, second = [c for c in clients if c != spender][:2]
    a = Batch([Payment(spender, 1, first, 1)])
    a_prime = Batch([Payment(spender, 1, second, 1)])
    replica = system.replicas[1]
    votes = [m for m in _votes_for(replica, prepare_type, a)
             if isinstance(m, vote_type)]
    assert len(votes) == 1
    assert not [m for m in _votes_for(replica, prepare_type, a_prime)
                if isinstance(m, vote_type)]
    assert replica._wal.wal.count == 0  # the promise left no record
    for each in system.replicas:
        each._wal.close()

    rebuilt = SYSTEM_BUILDERS[name](4, seed=5)
    _bind_all(rebuilt, tmp_path)
    votes = _votes_for(rebuilt.replicas[1], prepare_type, a_prime)
    assert not [m for m in votes if isinstance(m, vote_type)]


def test_replay_detects_fingerprint_divergence(tmp_path):
    from repro.brb.batching import Batch
    from repro.core.payment import Payment

    system = SYSTEM_BUILDERS["astro1"](4, seed=7)
    _bind_all(system, tmp_path, snapshot_interval=10_000,
              fingerprint_interval=2)
    _run_workload(system, 12)
    node = system.replicas[0].node_id
    system.replicas[0]._wal.close()

    # Tamper with one delivered batch: replay must land on a different
    # state than the recorded fingerprint and refuse to come up.
    store = ReplicaStore(str(tmp_path), node)
    snapshot, records = store.recover()
    assert snapshot is None
    mutated = []
    poisoned = False
    for record in records:
        if not poisoned and record[0] == "deliver":
            # Same identifier, one unit more: payments are immutable, so
            # the record is rebuilt around a new one.
            first, *rest = record[3]
            forged = Payment(
                first.spender, first.seq, first.beneficiary, first.amount + 1
            )
            record = (*record[:3], Batch([forged, *rest]), *record[4:])
            poisoned = True
        mutated.append(record)
    assert poisoned
    store.wal.open_for_append()
    store.wal._file.truncate(0)
    store.wal._file.seek(0)
    store.wal.count = 0
    for record in mutated:
        store.wal.append(record)
    store.close()

    rebuilt = SYSTEM_BUILDERS["astro1"](4, seed=7)
    replica = rebuilt.replicas[0]
    with pytest.raises(WalCorruption):
        replica.bind_persistence(ReplicaStore(str(tmp_path), node))


def _payout_phase(system, seqs, payer):
    """Everyone else pays ``payer`` 1 per round; ``payer`` then pays out
    more than its genesis balance (under Astro II: attaching the
    certificates those rounds earned), and three more rounds follow so
    that later checkpoints cover the payout.  Every round ends quiescent
    with the Astro II projections equal to their derivation."""
    clients = client_ids_of(system)
    others = [client for client in clients if client != payer]

    def pay(spender, beneficiary, amount):
        seqs[spender] = seqs.get(spender, 0) + 1
        system.submit_payment(
            Payment(spender, seqs[spender], beneficiary, amount)
        )

    for round_index in range(9):
        if round_index == 6:
            pay(payer, others[0], system.genesis[payer] + 40)
        for client in others:
            pay(client, payer, 1)
        system.settle_all()
        _assert_projections_derived(system.replicas)


def _xlogs(replica):
    """Every xlog entry as its transfer plus the set of certificates it
    carried: certificates attach in CREDIT arrival order, which a
    rebuilt simulator's fresh network draws decide, not the replica."""
    return {
        owner: [
            (payment.core, sorted(cert.dep_id for cert in payment.deps))
            for payment in log
        ]
        for owner, _, _, log in replica.state.accounts()
    }


@pytest.mark.parametrize("name", ["astro1", "astro2"])
def test_two_recoveries_in_a_row_land_on_the_never_crashed_twin(
    name, tmp_path
):
    """Run → crash → recover → more load → crash → recover.  The second
    recovery folds checkpoints written by both lives: the first life's
    recovered store must continue the log from what it folded, or the
    second fold meets a tail that does not start where it ends."""
    clients = client_ids_of(SYSTEM_BUILDERS[name](4, seed=11))
    twin, twin_seqs = SYSTEM_BUILDERS[name](4, seed=11), {}
    for payer in clients[:3]:
        _payout_phase(twin, twin_seqs, payer)

    seqs, frames = {}, []
    system = SYSTEM_BUILDERS[name](4, seed=11)
    _bind_all(system, tmp_path, snapshot_interval=4, fingerprint_interval=2)
    for life, payer in enumerate(clients[:3]):
        if life:  # crash: drop all in-memory state, recover from disk
            for replica in system.replicas:
                replica._wal.close()
            system = SYSTEM_BUILDERS[name](4, seed=11)
            reports = _bind_all(
                system, tmp_path, snapshot_interval=4, fingerprint_interval=2
            )
            assert all(report.had_snapshot for report in reports.values())
        _payout_phase(system, seqs, payer)
        frames.append(_checkpoints(system.replicas[0]._wal))
    assert frames[0] < frames[1] < frames[2]  # one log, continued

    for mine, theirs in zip(system.replicas, twin.replicas):
        assert state_fingerprint(mine.state) == state_fingerprint(
            theirs.state
        )
        assert mine.settled_count == theirs.settled_count > 0
        assert _xlogs(mine) == _xlogs(theirs)
        if name == "astro2":
            assert mine._seen_payments == theirs._seen_payments
            assert mine._used_deps == theirs._used_deps
            assert any(mine._used_deps.values())
            assert mine._projected == theirs._projected
            assert mine._attached_projection == theirs._attached_projection
            assert _pending_dep_ids(mine) == _pending_dep_ids(theirs)


def _pending_dep_ids(replica):
    return {
        client: {rec.dep_id(pos) for rec, pos in reference_pairs(refs)}
        for client, refs in replica._deps.items()
        if refs
    }


@pytest.mark.parametrize("interval", [10**6, 8])
def test_a_whole_balance_ring_settles_every_payment_across_a_crash(
    interval, tmp_path
):
    """Every round, each of 16 clients pays its whole genesis balance to
    the next, so each payment spends the certificate the previous round
    earned.  Replay re-mints every logged CREDIT but not the ingest-time
    attach: a representative that restored its projections came back
    holding certificates it had already spent, over-projected, and its
    next payout was rejected at every replica (Listing 9 l.49), leaving
    that client's later payments stranded.  Pure WAL replay (10**6) and
    checkpoints every 8 records both settle all 160."""
    system = SYSTEM_BUILDERS["astro2"](4, seed=11)
    _bind_all(system, tmp_path, snapshot_interval=interval)
    clients = client_ids_of(system)
    assert len(clients) == 16
    for round_index in range(10):
        if round_index == 3:  # crash: drop all in-memory state
            for replica in system.replicas:
                replica._wal.close()
            system = SYSTEM_BUILDERS["astro2"](4, seed=11)
            _bind_all(system, tmp_path, snapshot_interval=interval)
        for index, client in enumerate(clients):
            beneficiary = clients[(index + 1) % len(clients)]
            amount = system.genesis[client]
            system.submit_payment(
                Payment(client, round_index + 1, beneficiary, amount)
            )
        system.settle_all()
        _assert_projections_derived(system.replicas)
    outcomes = [(r.settled_count, len(r.rejected)) for r in system.replicas]
    assert outcomes == [(160, 0)] * 4


def test_a_payment_held_across_a_checkpoint_stays_held_through_replay(
    tmp_path,
):
    """The payer spends all but 1 of its genesis, then hands its
    representative a payment of its whole genesis: held.  A checkpoint
    covers the hold, a CREDIT of 1 to the payer lands in the WAL after
    it, and every replica crashes.  Replay must not release the held
    payment on a projection not yet derived (the constructor's genesis
    would cover it, and it would ship without certificates and be
    rejected at every replica).  Income then releases and settles it
    with no checkpoint after, and the replicas crash again: the payment
    is in the last checkpoint's held queue and settled in the WAL after
    it, so recovery must drop it, not launch it a second time (its
    duplicate would be skipped at delivery, its debit never undone)."""
    system = SYSTEM_BUILDERS["astro2"](4, seed=11)
    _bind_all(system, tmp_path, snapshot_interval=1)
    payer, payee, funder, topup = client_ids_of(system)[:4]
    genesis = system.genesis[payer]
    rep_node = system.directory.rep_of(payer)
    system.submit_payment(Payment(payer, 1, payee, genesis - 1))
    system.settle_all()
    held = Payment(payer, 2, payee, genesis)
    system.submit_payment(held)
    system.submit_payment(Payment(funder, 1, payer, 1))
    system.settle_all()
    assert list(system.replicas[rep_node]._held[payer]) == [held]

    def crash_and_rebind(interval):
        for replica in system.replicas:  # drop all in-memory state
            replica._wal.close()
        store = ReplicaStore(str(tmp_path), rep_node)
        snapshot, tail = store.recover()
        assert list(snapshot["held"][payer]) == [held]
        store.close()
        rebuilt = SYSTEM_BUILDERS["astro2"](4, seed=11)
        _bind_all(rebuilt, tmp_path, snapshot_interval=interval)
        return rebuilt, tail

    system, tail = crash_and_rebind(10**6)
    assert any(record[0] == "credit" for record in tail)
    assert list(system.replicas[rep_node]._held[payer]) == [held]
    system.submit_payment(Payment(topup, 1, payer, genesis))
    system.settle_all()
    assert not system.replicas[rep_node]._held

    system, tail = crash_and_rebind(10**6)
    launched = [p for r in tail if r[0] == "launch" for p in r[2]]
    assert [p.identifier for p in launched] == [held.identifier]
    assert not system.replicas[rep_node]._held
    system.submit_payment(Payment(payer, 3, payee, 2))  # all it has left
    system.settle_all()
    _assert_projections_derived(system.replicas)
    assert not system.replicas[rep_node]._held
    outcomes = [(r.settled_count, len(r.rejected)) for r in system.replicas]
    assert outcomes == [(5, 0)] * 4


@pytest.mark.parametrize("name", ["astro1", "astro2"])
def test_a_payment_that_died_in_the_batcher_is_accepted_again(name, tmp_path):
    """A checkpoint taken while a payment waits in its representative's
    batcher: the payment dies with the process, so the client's retry of
    the same seq must be accepted — and settle everywhere — after
    recovery, not refused as already seen."""
    system = SYSTEM_BUILDERS[name](4, seed=11)
    _bind_all(system, tmp_path, snapshot_interval=10**6)
    payer, payee = client_ids_of(system)[:2]
    system.submit_payment(Payment(payer, 1, payee, 1))
    system.settle_all()
    retried = Payment(payer, 2, payee, 1)
    system.submit_payment(retried)
    rep = system.replica_by_node(system.directory.rep_of(payer))
    assert rep.batcher._pending == [retried]
    rep._wal.write_snapshot(rep._snapshot_data())
    for replica in system.replicas:  # crash: drop all in-memory state
        replica._wal.close()

    system = SYSTEM_BUILDERS[name](4, seed=11)
    _bind_all(system, tmp_path, snapshot_interval=10**6)
    system.submit_payment(retried)
    system.settle_all()
    assert [r.state.seqnum(payer) for r in system.replicas] == [2] * 4
    assert [r.settled_count for r in system.replicas] == [2] * 4


def test_a_retry_of_a_payment_queued_for_funds_is_refused_after_recovery(
    tmp_path,
):
    """Astro I queues an underfunded payment at every replica.  Recovery
    derives its seq as accepted from the approval queue, so the client's
    retry is refused instead of broadcast a second time."""
    system = SYSTEM_BUILDERS["astro1"](4, seed=11)
    _bind_all(system, tmp_path)
    payer, payee = client_ids_of(system)[:2]
    queued = Payment(payer, 1, payee, system.genesis[payer] + 1)
    system.submit_payment(queued)
    system.settle_all()
    assert [r.queued_payments for r in system.replicas] == [1] * 4
    for replica in system.replicas:
        replica._wal.close()

    system = SYSTEM_BUILDERS["astro1"](4, seed=11)
    _bind_all(system, tmp_path)
    rep = system.replica_by_node(system.directory.rep_of(payer))
    assert rep._accepted_seq == {payer: 1}
    system.submit_payment(queued)
    system.settle_all()
    assert rep._broadcast_seq == 1 and rep.batcher._pending == []
    assert [r.queued_payments for r in system.replicas] == [1] * 4


@pytest.mark.parametrize("name", ["astro1", "astro2"])
def test_bind_over_a_history_builds_no_broadcast_instance(name, tmp_path):
    """Recovery restores the BRB layer's delivery frontier from the
    checkpoint and replay; it creates no per-identifier state."""
    system = SYSTEM_BUILDERS[name](4, seed=5)
    _bind_all(system, tmp_path, snapshot_interval=4)
    _run_workload(system, 24)
    frontiers = [r.brb.delivered.capture() for r in system.replicas]
    for replica in system.replicas:
        replica._wal.close()

    rebuilt = SYSTEM_BUILDERS[name](4, seed=5)
    reports = _bind_all(rebuilt, tmp_path, snapshot_interval=4)
    assert all(report.had_snapshot for report in reports.values())
    assert [r.brb.delivered.capture() for r in rebuilt.replicas] == frontiers
    assert all(r.brb._instances == {} for r in rebuilt.replicas)


def test_a_stale_commit_for_a_replayed_identifier_is_not_delivered(tmp_path):
    from repro.brb.signed import SbCommit, _ack_content
    from repro.crypto import sign

    system = SYSTEM_BUILDERS["astro2"](4, seed=5)
    _bind_all(system, tmp_path, snapshot_interval=10**6)
    _run_workload(system, 24)
    for replica in system.replicas:
        replica._wal.close()

    rebuilt = SYSTEM_BUILDERS["astro2"](4, seed=5)
    _bind_all(rebuilt, tmp_path, snapshot_interval=10**6)
    replica = rebuilt.replicas[1]
    records = ReplicaStore(str(tmp_path), 1).recover()[1]
    origin, seq, batch = next(r[1:4] for r in records if r[0] == "deliver")
    content = _ack_content(origin, seq, batch.cached_digest)
    proof = tuple(sign(r.key, content) for r in rebuilt.replicas[:3])
    commit = SbCommit(origin, seq, batch.cached_digest, proof, 264)
    assert replica.brb._valid_certificate(commit)
    before = (state_fingerprint(replica.state), replica._wal.wal.count)
    replica.brb._on_commit(origin, commit)
    assert (state_fingerprint(replica.state), replica._wal.wal.count) == before
    assert replica.brb.delivered_count == 0
    assert replica.brb._instances == {}


@pytest.mark.parametrize("name", ["astro1", "astro2"])
def test_a_checkpoint_written_during_an_import_covers_it(name, tmp_path):
    """The frontier records an imported identifier before the delivery
    path runs, so a checkpoint that delivery writes already holds it:
    recovered from that checkpoint, the replica refuses every batch it
    imported instead of applying the last one twice."""
    source = SYSTEM_BUILDERS[name](4, seed=5)
    _bind_all(source, tmp_path / "source")
    _run_workload(source, 24)
    request = CatchUpRequest(1, {}, ())
    batches = serve_catch_up(source.replicas[0]._wal, request).batches
    assert len(batches) > 1

    def importer():
        replica = SYSTEM_BUILDERS[name](4, seed=5).replicas[1]
        store = ReplicaStore(str(tmp_path / "importer"), 1, snapshot_interval=1)
        return replica, replica.bind_persistence(store)

    replica, _ = importer()
    assert all([replica.import_batch(*entry) for entry in batches])
    fingerprint = state_fingerprint(replica.state)
    replica._wal.close()
    replica, report = importer()
    assert report.had_snapshot and report.replayed == 0
    assert state_fingerprint(replica.state) == fingerprint
    assert not any([replica.import_batch(*entry) for entry in batches])


def test_a_wal_damaged_mid_file_is_refused_untouched(tmp_path):
    """Recovery over a WAL with a damaged record in the middle raises
    before it touches replica state or truncates a byte of the log."""
    system = SYSTEM_BUILDERS["astro2"](4, seed=9)
    _bind_all(system, tmp_path, snapshot_interval=10_000)
    _run_workload(system, 12)
    for replica in system.replicas:
        replica._wal.close()
    path = system.replicas[0]._wal.wal.path
    _set_record_header(path, 2, b"\xff\xff\xff\xff")
    size = os.path.getsize(path)

    rebuilt = SYSTEM_BUILDERS["astro2"](4, seed=9).replicas[0]
    before = state_fingerprint(rebuilt.state)
    reopened = ReplicaStore(str(tmp_path), rebuilt.node_id)
    with pytest.raises(WalCorruption, match="4294967295-byte header"):
        rebuilt.bind_persistence(reopened)
    assert state_fingerprint(rebuilt.state) == before
    assert rebuilt._wal is None and not reopened.recording
    assert os.path.getsize(path) == size


# ---------------------------------------------------------------------------
# Astro II snapshots keep the collector's state, not the collector
# ---------------------------------------------------------------------------
def test_restored_collector_is_still_the_replicas_own(tmp_path):
    system = SYSTEM_BUILDERS["astro2"](4, seed=5)
    _bind_all(system, tmp_path, snapshot_interval=4, fingerprint_interval=2)
    _run_workload(system, 24)
    minted = {
        r.node_id: r._collector.minted_subbatches for r in system.replicas
    }
    assert any(minted.values())
    for replica in system.replicas:
        replica._wal.close()

    rebuilt = SYSTEM_BUILDERS["astro2"](4, seed=5)
    collectors = {r.node_id: r._collector for r in rebuilt.replicas}
    reports = _bind_all(rebuilt, tmp_path, snapshot_interval=4,
                        fingerprint_interval=2)
    for replica in rebuilt.replicas:
        assert reports[replica.node_id].had_snapshot
        collector = replica._collector
        assert collector is collectors[replica.node_id]  # refilled in place
        assert collector.directory is replica.directory
        assert collector.keychain is replica.keychain
        assert collector.minted_subbatches == minted[replica.node_id]


def test_fresh_snapshot_is_small_and_holds_no_key_material():
    """1024 accounts: the int64 slabs are 16 kB of it.  The collector
    object used to add its directory (linear in accounts) and its
    keychain — every replica's signing secret and the RNG state.  What
    recovery derives is not in it either: the projections, and the
    verified sub-batch cache."""
    system = SYSTEM_BUILDERS["astro2"](4, seed=5, clients_per_replica=256)
    replica = system.replicas[0]
    data = replica._snapshot_data()
    for derived in ("projected", "attached_projection", "verified_certs"):
        assert derived not in data
    assert set(HISTORIES) == {
        ("account", "xlog_beneficiaries"),
        ("account", "xlog_amounts"),
        ("account", "xlog_deps"),
        ("used_deps",),
    }
    blob = pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(blob) < 24_000
    secrets = list(replica.keychain._secrets.values())
    assert len(secrets) >= 4
    for secret in secrets:
        assert secret.to_bytes(8, "little") not in blob
    for name in (b"Keychain", b"KeyPair", b"Directory", b"Collector"):
        assert name not in blob


def test_snapshot_holding_a_collector_object_is_refused_untouched(tmp_path):
    """What PR 19 and earlier wrote: ``data["collector"]`` is the object.
    Its directory and keychain are copies, not this replica's — refuse,
    before the account state is touched."""
    system = SYSTEM_BUILDERS["astro2"](4, seed=5)
    _bind_all(system, tmp_path, snapshot_interval=10_000)
    _run_workload(system, 12)
    writer = system.replicas[0]
    data = writer._snapshot_data()
    data["collector"] = writer._collector
    writer._wal.write_snapshot(data)
    for replica in system.replicas:
        replica._wal.close()

    rebuilt = SYSTEM_BUILDERS["astro2"](4, seed=5).replicas[0]
    before = state_fingerprint(rebuilt.state)
    collector = rebuilt._collector
    with pytest.raises(WalCorruption, match="collector object"):
        rebuilt.bind_persistence(ReplicaStore(str(tmp_path), rebuilt.node_id))
    assert state_fingerprint(rebuilt.state) == before
    assert rebuilt._collector is collector
    assert collector.minted_subbatches == 0


def test_a_checkpoint_of_the_payment_object_format_is_refused_untouched(
    tmp_path,
):
    """What format 2 wrote: xlogs as lists of payments and the ACK
    guard's map as a grow-only history, both as tails.  Recovery refuses
    it before the account state is touched (a format-2 account capture
    alone is refused by ``restore_account_state``, above)."""
    system = SYSTEM_BUILDERS["astro2"](4, seed=5)
    _bind_all(system, tmp_path, snapshot_interval=10_000)
    _run_workload(system, 12)
    writer = system.replicas[0]
    head = writer._snapshot_data()
    account = head["account"] = dict(head["account"], format=2)
    for key in ("xlog_beneficiaries", "xlog_amounts", "xlog_deps"):
        del account[key]
    entries = {o: list(log) for o, _, _, log in writer.state.accounts() if log}
    tails = {
        ("account", "xlog_entries"): {o: (0, e) for o, e in entries.items()},
        ("seen_payments",): (0, {("client-0", 1): ("client-0", 1, "x", 1)}),
        ("used_deps",): {},
    }
    writer._wal.wal.append(("checkpoint", pickle.dumps((head, tails))))
    for replica in system.replicas:
        replica._wal.close()

    rebuilt = SYSTEM_BUILDERS["astro2"](4, seed=5).replicas[0]
    before = state_fingerprint(rebuilt.state)
    with pytest.raises(WalCorruption, match="unknown history"):
        rebuilt.bind_persistence(ReplicaStore(str(tmp_path), rebuilt.node_id))
    assert state_fingerprint(rebuilt.state) == before
    assert not any(log for _, _, _, log in rebuilt.state.accounts())
    assert rebuilt._seen_payments == {}


def _pending_count(replica):
    return sum(len(refs) for refs in replica._deps.values()) // 2


def test_a_checkpoint_holds_each_minted_subbatch_once(tmp_path):
    """Uniform load over ample balances: no certificate is ever attached,
    so each payment leaves one pending at its beneficiary's
    representative, and every checkpoint writes them all.  A pending
    certificate is a reference into its sub-batch, and a checkpoint
    pickles each sub-batch once: ≈ 15 B per certificate here, where a
    whole ``DependencyCertificate`` re-packing its sub-batch cost ≈ 240."""
    system = SYSTEM_BUILDERS["astro2"](4, seed=5)
    _bind_all(system, tmp_path, snapshot_interval=64)
    for _ in range(20):
        _run_workload(system, 100)
    assert not any(r.rejected for r in system.replicas)
    replica = system.replicas[0]
    pending = _pending_count(replica)
    assert pending == 2000 // 4  # every payment to its clients, pending
    deps = replica._snapshot_data()["deps"]
    cost = len(pickle.dumps(deps, protocol=pickle.HIGHEST_PROTOCOL)) / pending
    assert cost <= 48, cost
    # What the checkpoint restores is what the representative held.
    for replica in system.replicas:
        replica._wal.close()
    rebuilt = SYSTEM_BUILDERS["astro2"](4, seed=5)
    _bind_all(rebuilt, tmp_path, snapshot_interval=64)
    for mine, theirs in zip(rebuilt.replicas, system.replicas):
        assert _pending_dep_ids(mine) == _pending_dep_ids(theirs)
        assert mine._projected == theirs._projected


def _checkpoint_growth(system, rounds):
    """Replica 0's largest checkpoint body and its WAL bytes per settled
    payment, after ``rounds`` more rounds of 100 uniform payments."""
    for _ in range(rounds):
        _run_workload(system, 100)
    replica = system.replicas[0]
    records, size = WriteAheadLog(replica._wal.wal.path).scan()
    largest = max(len(r[1]) for r in records if r[0] == "checkpoint")
    return largest, size / replica.settled_count


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2(a): a checkpoint rewrites every pending "
    "certificate, so checkpoints grow with history",
)
def test_checkpoints_stay_bounded_as_history_grows(tmp_path):
    """Budget: from K to 4K settled payments under uniform load, the
    largest checkpoint and the WAL bytes per payment stay within 1.5×.
    A checkpoint should write what changed since the previous one; today
    each rewrites the ``deps`` of every certificate still pending, one
    per payment to the representative's clients, so both grow with K."""
    system = SYSTEM_BUILDERS["astro2"](4, seed=5)
    _bind_all(system, tmp_path, snapshot_interval=16)
    at_k = _checkpoint_growth(system, 10)
    at_4k = _checkpoint_growth(system, 30)
    assert system.replicas[0].settled_count == 4000
    assert at_4k[0] <= 1.5 * at_k[0], ("largest checkpoint", at_k, at_4k)
    assert at_4k[1] <= 1.5 * at_k[1], ("WAL bytes per payment", at_k, at_4k)


def test_a_checkpoint_holding_whole_certificates_is_refused_untouched(
    tmp_path,
):
    """What format 4 wrote: each pending certificate whole.  Recovery
    refuses it by its account capture's tag, before any state — the
    account table or the pending certificates — is touched."""
    system = SYSTEM_BUILDERS["astro2"](4, seed=5)
    _bind_all(system, tmp_path, snapshot_interval=10_000)
    _run_workload(system, 48)
    writer = system.replicas[0]
    data = writer._snapshot_data()
    data["account"] = dict(data["account"], format=4)
    data["deps"] = {
        client: list(certificates_of(refs))
        for client, refs in writer._deps.items()
    }
    assert any(data["deps"].values())
    writer._wal.write_snapshot(data)
    for replica in system.replicas:
        replica._wal.close()

    rebuilt = SYSTEM_BUILDERS["astro2"](4, seed=5).replicas[0]
    before = state_fingerprint(rebuilt.state)
    with pytest.raises(WalCorruption, match="unsupported snapshot format 4"):
        rebuilt.bind_persistence(ReplicaStore(str(tmp_path), rebuilt.node_id))
    assert state_fingerprint(rebuilt.state) == before
    assert rebuilt._deps == {}
    assert rebuilt._collector.minted_subbatches == 0


def test_a_checkpoint_over_the_frame_cap_fails_once_and_stays_failed(
    tmp_path, monkeypatch
):
    """A checkpoint that does not fit a frame raises ``FrameError``; the
    store keeps that error, and every later record or checkpoint raises
    it again at once — nothing is re-pickled, nothing more is appended.
    Before, each later event rebuilt and re-pickled the checkpoint and
    failed anew."""
    system = SYSTEM_BUILDERS["astro2"](4, seed=5)
    _bind_all(system, tmp_path, snapshot_interval=10_000)
    _run_workload(system, 48)
    replica = system.replicas[0]
    store = replica._wal
    data = replica._snapshot_data()
    monkeypatch.setattr(persistence, "MAX_FRAME_BYTES", 1024)
    with pytest.raises(FrameError, match="exceeds the 1024-byte cap") as first:
        store.write_snapshot(data)
    count, size = store.wal.count, os.path.getsize(store.wal.path)

    dumps, calls = pickle.dumps, []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return dumps(*args, **kwargs)

    monkeypatch.setattr(pickle, "dumps", counting)
    for attempt in (
        lambda: store.write_snapshot(data),
        lambda: store.record(("fp", "0" * 64)),
        lambda: store.record_fingerprint("0" * 64),
    ):
        with pytest.raises(FrameError) as again:
            attempt()
        assert again.value is first.value
    assert calls == []
    assert (store.wal.count, os.path.getsize(store.wal.path)) == (count, size)


# ---------------------------------------------------------------------------
# Catch-up serving
# ---------------------------------------------------------------------------
def test_serve_catch_up_filters_and_bounds(tmp_path):
    store = ReplicaStore(str(tmp_path), 0)
    store.finish_recovery()
    for origin in (0, 1):
        for seq in range(1, 6):
            store.record(("deliver", origin, seq, f"b{origin}-{seq}"))
    store.record(("fp", "deadbeef"))  # non-deliver records are skipped

    reply = serve_catch_up(
        store, CatchUpRequest(7, {0: 3}, ((1, 2),), max_batches=100)
    )
    assert reply.tag == 7
    assert reply.complete
    served = {(origin, seq) for origin, seq, _ in reply.batches}
    assert served == {(0, 4), (0, 5), (1, 1), (1, 3), (1, 4), (1, 5)}

    bounded = serve_catch_up(
        store, CatchUpRequest(8, {}, (), max_batches=3)
    )
    assert not bounded.complete
    assert len(bounded.batches) == 3


def _long_history(tmp_path) -> ReplicaStore:
    """A WAL of more deliveries than one catch-up reply may carry."""
    store = ReplicaStore(str(tmp_path), 0)
    store.finish_recovery()
    for seq in range(1, CATCH_UP_MAX_BATCHES + 89):
        store.record(("deliver", 0, seq, f"b{seq}"))
    return store


def test_serve_catch_up_caps_what_a_greedy_peer_is_served(tmp_path):
    """The bound is the server's: an authenticated (possibly Byzantine)
    peer cannot have the whole history pickled into one reply."""
    greedy = serve_catch_up(
        _long_history(tmp_path), CatchUpRequest(1, {}, (), 10**9)
    )
    assert len(greedy.batches) == CATCH_UP_MAX_BATCHES
    assert not greedy.complete


def test_serve_catch_up_makes_progress_on_a_bound_below_one(tmp_path):
    """... nor, asking for 0 or -1, be told "incomplete" with no batch
    for ever: it is served one at a time and gets there."""
    store = _long_history(tmp_path)
    newest = CATCH_UP_MAX_BATCHES + 88
    for frontier, bound in enumerate((-1, 0, -(10**9))):
        reply = serve_catch_up(
            store, CatchUpRequest(2, {0: frontier}, (), bound)
        )
        assert [seq for _origin, seq, _batch in reply.batches] == [frontier + 1]
        assert not reply.complete
    last = serve_catch_up(store, CatchUpRequest(3, {0: newest - 1}, (), -1))
    assert [seq for _origin, seq, _batch in last.batches] == [newest]
    assert last.complete


def test_serve_catch_up_reads_no_further_than_it_answers(
    tmp_path, monkeypatch
):
    """``iter_records`` is a generator: a request served 8 batches from a
    5,000-record WAL unpickles those, the record that shows there is more,
    and what it skipped on the way — not the whole history (per request,
    on the payment path's own loop)."""
    store = ReplicaStore(str(tmp_path), 0)
    store.finish_recovery()
    for index in range(5000):
        if index % 4 == 0:
            store.record(("fp", f"{index:x}"))
        else:
            store.record(("deliver", index % 3, index, f"b{index}"))
    records, _valid = store.wal.scan()
    assert len(records) == 5000
    delivers = [record[1:] for record in records if record[0] == "deliver"]

    loads, real_loads = [], pickle.loads
    monkeypatch.setattr(
        pickle, "loads", lambda data: loads.append(1) or real_loads(data)
    )
    reply = serve_catch_up(store, CatchUpRequest(1, {}, (), 8))
    monkeypatch.undo()
    assert list(reply.batches) == delivers[:8] and not reply.complete
    skipped = 3  # records 0, 4 and 8 are fingerprints
    assert len(loads) == 8 + skipped + 1

    # A torn tail still ends the iteration silently, wherever it stops.
    with open(store.wal.path, "ab") as fh:
        fh.write(b"\x00\x00\x01\x00" + b"half a record")
    assert sum(1 for _ in store.wal.iter_records()) == 5000
    frontier = {origin: 4996 for origin in range(3)}
    tail = serve_catch_up(store, CatchUpRequest(2, frontier, (), 8))
    assert [seq for _origin, seq, _batch in tail.batches] == [4997, 4998, 4999]
    assert tail.complete


def test_serve_catch_up_skips_a_checkpoint_without_unpickling_it(
    tmp_path, monkeypatch
):
    """A checkpoint's ``body`` stays bytes when the WAL is read: serving
    a log of N records, K of them checkpoints, unpickles N times, and
    only recovery, which folds each checkpoint, unpickles N + K."""
    store = ReplicaStore(str(tmp_path), 0)
    store.finish_recovery()
    for seq in range(1, 44):
        store.record(("deliver", 0, seq, f"b{seq}"))
        if seq % 8 == 0:
            seen = {index: index for index in range(seq)}
            store.write_snapshot({"counter": seq, "seen_payments": seen})
    store.close()
    records, _valid = store.wal.scan()
    n, k = len(records), _checkpoints(store)
    assert (n, k) == (48, 5)

    loads, real_loads = [], pickle.loads
    monkeypatch.setattr(
        pickle, "loads", lambda data: loads.append(1) or real_loads(data)
    )
    reply = serve_catch_up(store, CatchUpRequest(1, {}, ()))
    assert len(reply.batches) == 43 and reply.complete
    assert len(loads) == n
    loads.clear()
    capture, tail = ReplicaStore(str(tmp_path), 0).recover()
    assert len(loads) == n + k
    monkeypatch.undo()
    assert capture == {
        "counter": 40,
        "seen_payments": {index: index for index in range(40)},
    }
    assert [record[2] for record in tail] == [41, 42, 43]


def test_catch_up_messages_pickle_roundtrip():
    request = CatchUpRequest(3, {0: 2}, ((1, 5),), max_batches=9)
    clone = pickle.loads(pickle.dumps(request))
    assert (clone.tag, clone.frontier, clone.extra, clone.max_batches) == (
        3, {0: 2}, ((1, 5),), 9
    )

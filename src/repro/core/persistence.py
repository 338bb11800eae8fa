"""Durable replica state: one write-ahead log per replica, peer catch-up.

A live replica process (``repro.transport.cluster``) can be SIGKILLed at
any instant.  Everything it must not lose flows through this module into
one **append-only write-ahead log** (WAL), ``replica-N.wal``, each record
a length-framed pickle (the same compact ``__reduce__`` wire encodings
the transport ships, see :mod:`repro.transport.framing`), flushed as
written:

* applied events — delivered batches, applied CREDITs, executed
  consensus slots, and launched-but-not-yet-delivered broadcasts — each
  logged before the event is applied;
* **checkpoints**, which bound replay time.  Every 256 records the
  replica's capture is appended as one ``("checkpoint", body)`` record:
  ``body`` pickles the head state whole (slabs, collector, pending
  certificates, queues, the ACK guard's unsettled payments, the BRB
  layer's delivery frontier, counters) and each grow-only history
  (:data:`HISTORIES`: the xlogs' columns, ``usedDeps``) as the tail
  added since the previous checkpoint (projections are derived).  A
  checkpoint writes what changed, not what exists, and its position in
  the log is what it covers.

The log is never truncated, because its delivery history doubles as the
serving side of the peer **catch-up** protocol a restarted replica uses
to fetch batches it missed while dead; ``body`` stays bytes there, so
serving skips a checkpoint without building its objects.

Recovery (:meth:`ReplicaStore.recover`) reads the log once: it *folds*
every checkpoint into the capture of the last one and replays the
records after it onto the restored state, which must land exactly on the
pre-crash SHA-256 state fingerprint — periodic ``fp`` records make
divergence a hard :class:`WalCorruption` error instead of silent drift.
A torn last record (a SIGKILL mid-write) ends the log and is truncated
before the next append; a torn checkpoint leaves the one before it
standing, and the records between them are replayed.  Anything else — a
damaged record mid-file, a checkpoint whose tails do not continue the
fold — is :class:`WalCorruption`, raised before any replica state is
touched or any byte truncated.  A store from a tree that kept its
checkpoints in a separate ``.snap`` file has none in its WAL: it replays
the whole log, and the ``.snap`` is left as it is.

Persistence is **off by default** (``replica._wal is None``): simulator
runs never touch this module, keeping the golden byte-identity suites
untouched.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
from array import array
from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..brb.interface import DeliveryFrontier
from ..transport.framing import MAX_FRAME_BYTES, encode_frame
from .accounts import AccountState

__all__ = [
    "CatchUpReply",
    "CatchUpRequest",
    "RecoveryReport",
    "ReplicaStore",
    "WalCorruption",
    "WriteAheadLog",
    "restore_account_state",
    "serve_catch_up",
    "snapshot_account_state",
    "state_fingerprint",
    "state_fingerprints",
]

_unpack_header = struct.Struct(">I").unpack_from

#: Default number of WAL records between periodic state-fingerprint
#: self-check records.
FINGERPRINT_INTERVAL = 64

#: Default number of WAL records between checkpoints.
SNAPSHOT_INTERVAL = 256

#: Upper bound on batches served in one catch-up reply.
CATCH_UP_MAX_BATCHES = 512


class WalCorruption(Exception):
    """The log is damaged, or replay diverged from a recorded fingerprint."""


def state_fingerprint(state: Any) -> str:
    """SHA-256 fingerprint of an :class:`AccountState`.

    The one formula: :func:`state_fingerprints` (the golden-pinned
    simulator witness) calls this, so a recovered live replica can be
    compared against a simulator prediction directly.
    """
    return hashlib.sha256(repr(state.snapshot()).encode()).hexdigest()


def state_fingerprints(system: Any) -> Dict[int, str]:
    """:func:`state_fingerprint` of every replica of ``system``, by node
    id — the byte-identity witness of the determinism tests."""
    return {
        replica.node_id: state_fingerprint(replica.state)
        for replica in system.replicas
    }


def _genesis_digest(state: AccountState) -> str:
    """Fingerprint of the interned genesis prefix (restore alignment)."""
    prefix = tuple(state._interner._clients[: state._genesis_len])
    return hashlib.sha256(repr(prefix).encode()).hexdigest()


#: The one snapshot encoding :func:`restore_account_state` accepts.
SNAPSHOT_FORMAT = 3


def snapshot_account_state(state: AccountState) -> Dict[str, Any]:
    """Full picklable capture of an account state (incl. xlogs).

    :meth:`AccountState.capture` owns the store layout; this module adds
    what makes it a *file*: the format tag and the genesis digest.
    """
    data = state.capture()
    data["format"] = SNAPSHOT_FORMAT
    data["genesis_digest"] = _genesis_digest(state)
    return data


def restore_account_state(state: AccountState, data: Dict[str, Any]) -> None:
    """Rebuild an :class:`AccountState` in place from a capture.

    A capture in any other encoding (missing or unknown ``format`` tag)
    is refused outright rather than half-applied.
    """
    if data.get("format") != SNAPSHOT_FORMAT:
        raise WalCorruption(
            f"unsupported snapshot format {data.get('format')!r} "
            f"(this build reads format {SNAPSHOT_FORMAT})"
        )
    if data["genesis_len"] != state._genesis_len or (
        data["genesis_digest"] != _genesis_digest(state)
    ):
        raise WalCorruption(
            "snapshot genesis does not match this replica's genesis"
        )
    state.refill(data)


def _damaged(path: str, offset: int, what: str) -> WalCorruption:
    return WalCorruption(f"write-ahead log {path}: {what} at byte {offset}")


class WriteAheadLog:
    """Append-only record file: length-framed pickles, flushed per record.

    A SIGKILL can land mid-write, leaving a torn final record; recovery
    scans to the last complete record and truncates the torn tail before
    appending again.  Damage anywhere else is :class:`WalCorruption`,
    raised by the scan, before anything is truncated.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._file: Optional[Any] = None
        #: Complete records currently in the file (valid after
        #: :meth:`scan` / :meth:`open_for_append`).
        self.count = 0

    # -- recovery-side reading -----------------------------------------
    def scan(self) -> Tuple[List[Any], int]:
        """Return (records, valid_byte_length), tolerating a torn tail."""
        records: List[Any] = []
        valid = 0
        for record, valid in self._read():
            records.append(record)
        return records, valid

    def iter_records(self) -> Iterator[Any]:
        """Iterate the complete records currently on disk, one read and
        unpickled at a time: catch-up, stopping at its batch limit,
        leaves the rest of the history on disk.  Safe to call while the
        log is being appended (a live replica serving catch-up): a torn
        or partially flushed tail simply ends the iteration.
        """
        for record, _ in self._read():
            yield record

    def _read(self) -> Iterator[Tuple[Any, int]]:
        """``(record, end offset)`` of each complete record.  A missing
        file or a torn tail ends it: a SIGKILL mid-append can only leave
        a prefix of a valid frame at the end of the file.  A header no
        append writes, or a body that does not unpickle, is damage —
        framing cannot resynchronize past it, and the records behind it
        are no torn tail."""
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return
        with fh:
            offset = 0
            while True:
                header = fh.read(4)
                if len(header) < 4:
                    return  # end of the log, or a torn header
                length = _unpack_header(header)[0]
                if length == 0 or length > MAX_FRAME_BYTES:
                    raise _damaged(self.path, offset, f"a {length}-byte header")
                body = fh.read(length)
                if len(body) < length:
                    return  # torn last record
                try:
                    record = pickle.loads(body)
                except Exception as exc:
                    raise _damaged(self.path, offset, repr(exc))
                offset += 4 + length
                yield record, offset

    # -- append-side writing -------------------------------------------
    def open_for_append(self) -> int:
        """Truncate any torn tail and open for appending.

        Returns the number of complete records already in the log.
        """
        records, valid = self.scan()
        return self.open_at(len(records), valid)

    def open_at(self, count: int, valid: int) -> int:
        """:meth:`open_for_append` after a :meth:`scan` the caller already
        made (``count`` complete records in ``valid`` bytes): recovery
        reads the log once, not once to replay and again to append."""
        self.count = count
        self._file = open(self.path, "ab")
        if self._file.tell() != valid:
            self._file.truncate(valid)
            self._file.seek(valid)
        return count

    def append(self, record: Any) -> None:
        if self._file is None:
            raise RuntimeError("WAL is not open for appending")
        self._file.write(encode_frame(record))
        # Flush to the OS: survives SIGKILL of this process (durability
        # against machine crashes would need fsync; process-kill chaos —
        # the failure model here — only needs the page cache).
        self._file.flush()
        self.count += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


#: The grow-only histories of a replica capture, by their path in it:
#: dicts of one history per owner.  A history is a list, an array or an
#: insertion-ordered dict that is only ever appended to, so "what was
#: written" is a length.
HISTORIES: Tuple[Tuple[str, ...], ...] = (
    ("account", "xlog_beneficiaries"),  # owner -> beneficiary per seq
    ("account", "xlog_amounts"),  # owner -> int64 amount per seq
    ("account", "xlog_deps"),  # owner -> {seq: certificates}
    ("used_deps",),  # Astro II usedDeps: client -> {dep_id: None}
)

#: Kind of a checkpoint record: ``("checkpoint", body)``.
_CHECKPOINT = "checkpoint"

#: A history the capture does not have (not a replica kind's field).
_ABSENT: Any = object()


def _detach(head: Dict[str, Any], path: Tuple[str, ...]) -> Any:
    """Pop the history at ``path`` out of ``head``, copying the dicts on
    the way so the caller's capture is left as it was."""
    *parents, leaf = path
    node = head
    for key in parents:
        child = node.get(key)
        if not isinstance(child, dict):
            return _ABSENT
        child = node[key] = dict(child)
        node = child
    return node.pop(leaf, _ABSENT)


def _tail(history: Any, start: int) -> Any:
    """What ``history`` gained past its first ``start`` items."""
    if len(history) < start:
        raise ValueError(
            f"a grow-only history shrank from {start} to {len(history)} "
            "items since the last checkpoint"
        )
    if isinstance(history, dict):
        return dict(islice(history.items(), start, None))
    return history[start:]


def _grow(have: Any, start: int, tail: Any) -> Any:
    """Fold one tail onto ``have`` (``None``: not in the log yet)."""
    size = 0 if have is None else len(have)
    if start != size:
        raise WalCorruption(
            f"checkpoint tail starts at item {start} but the folded "
            f"history holds {size}"
        )
    if type(tail) not in (list, array, dict) or (
        have is not None and type(have) is not type(tail)
    ):
        raise WalCorruption(f"checkpoint tail is a {type(tail).__name__}")
    if have is None:
        have = tail
    elif isinstance(have, dict):
        have.update(tail)
    else:
        have.extend(tail)
    if len(have) != start + len(tail):
        raise WalCorruption("checkpoint tail repeats an item it continues")
    return have


def _fold_history(path: Tuple[str, ...], have: Any, tail: Any) -> Any:
    if path not in HISTORIES:
        raise WalCorruption(f"checkpoint tail of an unknown history {path}")
    have = {} if have is None else have
    for owner, (start, items) in tail.items():
        have[owner] = _grow(have.get(owner), start, items)
    return have


class RecoveryReport:
    """What :meth:`bind_persistence` found and did."""

    __slots__ = ("had_snapshot", "replayed", "fingerprint")

    def __init__(self, had_snapshot: bool, replayed: int, fingerprint: str) -> None:
        self.had_snapshot = had_snapshot
        self.replayed = replayed
        self.fingerprint = fingerprint

    def as_dict(self) -> Dict[str, Any]:
        return {
            "had_snapshot": self.had_snapshot,
            "replayed": self.replayed,
            "fingerprint": self.fingerprint,
        }


class ReplicaStore:
    """One replica's durable storage: its WAL, checkpoints included.

    The store starts **not recording**: the owning replica first restores
    and replays what :meth:`recover` returns (with :attr:`recording` off
    so replayed events are not re-appended), then calls
    :meth:`finish_recovery` to begin appending.
    """

    def __init__(
        self,
        root: str,
        node_id: int,
        snapshot_interval: int = SNAPSHOT_INTERVAL,
        fingerprint_interval: int = FINGERPRINT_INTERVAL,
    ) -> None:
        os.makedirs(root, exist_ok=True)
        self.root = root
        self.node_id = node_id
        self.wal = WriteAheadLog(os.path.join(root, f"replica-{node_id}.wal"))
        self.snapshot_interval = snapshot_interval
        self.fingerprint_interval = fingerprint_interval
        self.recording = False
        #: Record index of the last snapshot / fingerprint written.
        self._last_snapshot_at = 0
        self._last_fingerprint_at = 0
        #: ``(count, valid bytes)`` of the WAL as :meth:`recover` read it,
        #: for :meth:`finish_recovery` to append after.
        self._scanned: Optional[Tuple[int, int]] = None
        #: Items of each history the log's checkpoints hold, per owner.
        self._written: Dict[Tuple[str, ...], Any] = {}

    # -- recovery ------------------------------------------------------
    def recover(self) -> Tuple[Optional[Dict[str, Any]], List[Any]]:
        """``(capture, records)`` in one scan of the WAL: the capture of
        the last complete checkpoint, folded from every checkpoint on the
        way (``None``: there is none), and the records after it."""
        capture: Optional[Dict[str, Any]] = None
        histories: Dict[Tuple[str, ...], Any] = {}
        records: List[Any] = []
        count = valid = 0
        for record, end in self.wal._read():
            if record[0] == _CHECKPOINT:
                capture = self._fold(record[1], histories, valid)
                records = []
            else:
                records.append(record)
            count += 1
            valid = end
        self._scanned = (count, valid)
        self._written = {
            path: {owner: len(items) for owner, items in history.items()}
            for path, history in histories.items()
        }
        return capture, records

    def _fold(
        self, body: bytes, histories: Dict[Tuple[str, ...], Any], offset: int
    ) -> Dict[str, Any]:
        """The capture of the checkpoint at ``offset``, its tails grown
        onto ``histories`` (those of the checkpoints before it)."""
        try:
            head, tails = pickle.loads(body)
            if not isinstance(head, dict):
                raise ValueError("not a checkpoint")
            for path, tail in tails.items():
                *parents, leaf = path
                node = head
                for key in parents:
                    node = node[key]
                node[leaf] = histories[path] = _fold_history(
                    path, histories.get(path), tail
                )
        except WalCorruption:
            raise
        except Exception as exc:
            raise _damaged(self.wal.path, offset, f"checkpoint {exc!r}")
        return head

    def finish_recovery(self) -> None:
        """Truncate any torn tail, open for appending, start recording.

        Appends after the records :meth:`recover` read, running it if
        nobody did: the WAL is read once per recovery, and the next
        checkpoint continues the fold.
        """
        if self._scanned is None:
            self.recover()
        count = self.wal.open_at(*self._scanned)
        self._scanned = None
        self._last_snapshot_at = count
        self._last_fingerprint_at = count
        self.recording = True

    # -- appending -----------------------------------------------------
    def record(self, record: Tuple[Any, ...]) -> None:
        if self.recording:
            self.wal.append(record)

    def fingerprint_due(self) -> bool:
        return (
            self.recording
            and self.wal.count - self._last_fingerprint_at >= self.fingerprint_interval
        )

    def record_fingerprint(self, fingerprint: str) -> None:
        if self.recording:
            self.wal.append(("fp", fingerprint))
            self._last_fingerprint_at = self.wal.count

    def snapshot_due(self) -> bool:
        return (
            self.recording
            and self.wal.count - self._last_snapshot_at >= self.snapshot_interval
        )

    def write_snapshot(self, data: Dict[str, Any]) -> None:
        """Append a checkpoint of ``data`` to the WAL.

        ``body`` is ``(head, tails)``: ``data`` minus its
        :data:`HISTORIES`, whole, and per history the ``(start, items)``
        each owner gained since the log's previous checkpoint (only the
        owners that are new or grew).
        """
        head = dict(data)
        tails: Dict[Tuple[str, ...], Any] = {}
        written = dict(self._written)
        for path in HISTORIES:
            history = _detach(head, path)
            if history is _ABSENT:
                continue
            marks = written.get(path, {})
            if not marks.keys() <= history.keys():
                raise ValueError(f"an owner left the grow-only {path}")
            grown = {}
            for owner, items in history.items():
                start = marks.get(owner)
                if start != len(items):
                    grown[owner] = (start or 0, _tail(items, start or 0))
            tails[path] = grown
            written[path] = {
                owner: len(items) for owner, items in history.items()
            }
        body = pickle.dumps((head, tails), protocol=pickle.HIGHEST_PROTOCOL)
        self.wal.append((_CHECKPOINT, body))
        self._written = written
        self._last_snapshot_at = self.wal.count

    def close(self) -> None:
        self.recording = False
        self.wal.close()


# ----------------------------------------------------------------------
# Peer catch-up (bounded, pull-based)
# ----------------------------------------------------------------------
class CatchUpRequest:
    """A recovering replica asks a peer for batches past its frontier.

    ``frontier`` and ``extra`` are its BRB layer's
    :class:`~repro.brb.interface.DeliveryFrontier`, captured: origin →
    highest contiguously delivered broadcast sequence, and the
    ``(origin, seq)`` pairs delivered above it.  The peer serves from its
    own WAL.
    """

    __slots__ = ("tag", "frontier", "extra", "max_batches")

    def __init__(
        self,
        tag: int,
        frontier: Dict[int, int],
        extra: Tuple[Tuple[int, int], ...],
        max_batches: int = CATCH_UP_MAX_BATCHES,
    ) -> None:
        self.tag = tag
        self.frontier = frontier
        self.extra = extra
        self.max_batches = max_batches

    def __reduce__(self):
        return (
            CatchUpRequest,
            (self.tag, self.frontier, self.extra, self.max_batches),
        )


class CatchUpReply:
    """``batches`` is a tuple of ``(origin, seq, batch)``; ``complete``
    means the serving peer had nothing further past the frontier."""

    __slots__ = ("tag", "batches", "complete")

    def __init__(
        self, tag: int, batches: Tuple[Tuple[int, int, Any], ...], complete: bool
    ) -> None:
        self.tag = tag
        self.batches = batches
        self.complete = complete

    def __reduce__(self):
        return (CatchUpReply, (self.tag, self.batches, self.complete))


def serve_catch_up(store: ReplicaStore, request: CatchUpRequest) -> CatchUpReply:
    """Answer a peer's catch-up request from this replica's own WAL.

    The WAL is append-only and never truncated, so it holds this
    replica's full delivery history (including batches it imported via
    its own catch-up) — a single surviving correct peer suffices.  A
    checkpoint is skipped as it reads: its ``body`` stays bytes.

    ``max_batches`` is the peer's number, so it is clamped here: a huge
    one must not pickle the whole history into one reply, and one below
    1 must not be answered "incomplete" with no batch for ever.
    """
    limit = min(max(request.max_batches, 1), CATCH_UP_MAX_BATCHES)
    have = DeliveryFrontier(request.frontier, request.extra)
    batches: List[Tuple[int, int, Any]] = []
    complete = True
    for record in store.wal.iter_records():
        if record[0] != "deliver" or (record[1], record[2]) in have:
            continue
        if len(batches) >= limit:
            complete = False
            break
        have.add(record[1], record[2])
        batches.append(record[1:4])
    return CatchUpReply(request.tag, tuple(batches), complete)

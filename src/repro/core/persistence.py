"""Durable replica state: write-ahead log, checkpoint log, peer catch-up.

A live replica process (``repro.transport.cluster``) can be SIGKILLed at
any instant.  Everything it must not lose flows through this module:

* an **append-only write-ahead log** (WAL) of applied events — delivered
  batches, applied CREDITs, executed consensus slots, and launched-but-
  not-yet-delivered broadcasts — each record a length-framed pickle (the
  same compact ``__reduce__`` wire encodings the transport ships, see
  :mod:`repro.transport.framing`), flushed before the event is applied;
  it is never truncated, because its delivery history doubles as the
  serving side of the peer **catch-up** protocol a restarted replica
  uses to fetch batches it missed while dead;
* an **append-only checkpoint log** (:class:`CheckpointLog`) that bounds
  replay time.  Every 256 WAL records the replica's capture is appended
  as one frame in the WAL's framing: the head state whole (slabs,
  collector, pending certificates, queues, the BRB layer's delivery
  frontier, counters, ``wal_count``) and each grow-only history (:data:`HISTORIES`: xlogs,
  the ACK guard's payment log, ``usedDeps``) as the tail added since the
  previous frame (projections are derived).  A checkpoint writes what changed,
  not what exists.  Loading *folds* the complete frames back into the
  capture of the last one.  A torn last frame (a SIGKILL mid-write)
  leaves the previous checkpoint standing and is truncated before the
  next append — safe, because the never-truncated WAL still backs that
  checkpoint's ``wal_count``.  Anything else that is not a frame
  continuing the fold — a damaged frame mid-file, a single-pickle
  snapshot written before the log existed, a tail that does not start
  where the folded history ends — is :class:`WalCorruption`, raised
  before any replica state is touched.  The WAL is read the same way
  (:func:`_frames`), and nothing is truncated before it is read whole.

Recovery replays the WAL suffix past the checkpoint onto the restored
state and must land exactly on the pre-crash SHA-256 state fingerprint —
periodic ``fp`` records make divergence a hard
:class:`WalCorruption` error instead of silent drift.

Persistence is **off by default** (``replica._wal is None``): simulator
runs never touch this module, keeping the golden byte-identity suites
untouched.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..brb.interface import DeliveryFrontier
from ..transport.framing import MAX_FRAME_BYTES, FrameError, encode_frame
from .accounts import AccountState

__all__ = [
    "CatchUpReply",
    "CatchUpRequest",
    "CheckpointLog",
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

_header = struct.Struct(">I")
_pack_header = _header.pack
_unpack_header = _header.unpack_from

#: Default number of WAL records between periodic state-fingerprint
#: self-check records.
FINGERPRINT_INTERVAL = 64

#: Default number of WAL records between checkpoints.
SNAPSHOT_INTERVAL = 256

#: Upper bound on batches served in one catch-up reply.
CATCH_UP_MAX_BATCHES = 512


class WalCorruption(Exception):
    """Recovery replay diverged from the recorded state fingerprint."""


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
SNAPSHOT_FORMAT = 2


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


def _damaged(kind: str, path: str, offset: int, what: str) -> WalCorruption:
    return WalCorruption(
        f"{kind} log {path}: {what} at byte {offset} is not a {kind} frame"
    )


def _frames(path: str, kind: str) -> Iterator[Tuple[int, bytes]]:
    """``(offset, body)`` of each complete frame of the ``kind`` log at
    ``path``.  A missing file or a torn tail ends it: a SIGKILL
    mid-append can only leave a prefix of a valid frame at the end of
    the file.  A header no append writes is damage — framing cannot
    resynchronize past it, and the frames behind it are no torn tail."""
    try:
        fh = open(path, "rb")
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
                raise _damaged(kind, path, offset, f"a {length}-byte header")
            body = fh.read(length)
            if len(body) < length:
                return  # torn last frame
            yield offset, body
            offset += 4 + length


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
        """``(record, end offset)`` of each complete record (see
        :func:`_frames`); a body that does not unpickle raises."""
        for offset, body in _frames(self.path, "write-ahead"):
            try:
                record = pickle.loads(body)
            except Exception as exc:
                raise _damaged("write-ahead", self.path, offset, repr(exc))
            yield record, offset + 4 + len(body)

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


#: The grow-only histories of a replica capture, by their path in it,
#: mapped to whether they are *keyed* (a dict of histories, one per
#: owner) or flat.  A history is a list or an insertion-ordered dict that
#: is only ever appended to, so "what was written" is a length.
HISTORIES: Dict[Tuple[str, ...], bool] = {
    ("account", "xlog_entries"): True,  # owner -> settled payments
    ("seen_payments",): False,  # Astro II ACK guard: identifier -> core
    ("used_deps",): True,  # Astro II usedDeps: client -> {dep_id: None}
}

#: First element of every checkpoint frame.
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
    if isinstance(history, list):
        return history[start:]
    return dict(islice(history.items(), start, None))


def _grow(have: Any, start: int, tail: Any) -> Any:
    """Fold one tail onto ``have`` (``None``: not in the log yet)."""
    size = 0 if have is None else len(have)
    if start != size:
        raise WalCorruption(
            f"checkpoint tail starts at item {start} but the folded "
            f"history holds {size}"
        )
    if type(tail) not in (list, dict) or (
        have is not None and type(have) is not type(tail)
    ):
        raise WalCorruption(f"checkpoint tail is a {type(tail).__name__}")
    if have is None:
        have = type(tail)()
    if isinstance(have, list):
        have.extend(tail)
    else:
        have.update(tail)
    if len(have) != start + len(tail):
        raise WalCorruption("checkpoint tail repeats an item it continues")
    return have


class CheckpointLog:
    """Append-only log of a replica's checkpoints (the ``.snap`` file).

    Each frame — the WAL's length-framed pickle — is ``("checkpoint",
    head, tails)``: the capture minus its :data:`HISTORIES`, whole, and
    per history the ``(start, items)`` it gained since the previous
    frame (per owner for a keyed one, which lists only the owners that
    are new or grew).  The log remembers how much of each history it
    holds — from its own appends, or from the fold when it was read — so
    a replica recovered from it continues the same log.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._file: Optional[Any] = None
        #: Bytes of complete frames on disk; ``None`` until read.
        self._valid: Optional[int] = None
        #: Items of each history in the log: a count per flat history,
        #: a count per owner per keyed one.
        self._written: Dict[Tuple[str, ...], Any] = {}

    def load(self) -> Optional[Dict[str, Any]]:
        """The capture of the last complete checkpoint, folded from every
        frame (``None``: no complete frame).  A torn last frame is
        skipped; a damaged frame anywhere is :class:`WalCorruption`."""
        head: Optional[Dict[str, Any]] = None
        histories: Dict[Tuple[str, ...], Any] = {}
        valid = 0
        for offset, body in _frames(self.path, "checkpoint"):
            try:
                tag, head, tails = pickle.loads(body)
                if tag != _CHECKPOINT or not isinstance(head, dict):
                    raise ValueError("not a checkpoint frame")
                for path, tail in tails.items():
                    *parents, leaf = path
                    node = head
                    for key in parents:
                        node = node[key]
                    node[leaf] = histories[path] = self._fold(
                        path, histories.get(path), tail
                    )
            except WalCorruption:
                raise
            except Exception as exc:
                raise _damaged("checkpoint", self.path, offset, repr(exc))
            valid = offset + 4 + len(body)
        self._valid = valid
        self._written = {
            path: (
                {owner: len(items) for owner, items in history.items()}
                if HISTORIES[path]
                else len(history)
            )
            for path, history in histories.items()
        }
        return head

    @staticmethod
    def _fold(path: Tuple[str, ...], have: Any, tail: Any) -> Any:
        if not HISTORIES[path]:
            return _grow(have, *tail)
        have = {} if have is None else have
        for owner, (start, items) in tail.items():
            have[owner] = _grow(have.get(owner), start, items)
        return have

    def append(self, data: Dict[str, Any], wal_count: int) -> None:
        """Append a checkpoint of ``data`` stamped with ``wal_count``."""
        if self._file is None:
            if self._valid is None:
                self.load()  # continue what is on disk, never rewrite it
            self._file = open(self.path, "ab")
            if self._file.tell() != self._valid:
                self._file.truncate(self._valid)  # a torn last frame
                self._file.seek(self._valid)
        head = dict(data)
        head["wal_count"] = wal_count
        tails: Dict[Tuple[str, ...], Any] = {}
        written = dict(self._written)
        for path, keyed in HISTORIES.items():
            history = _detach(head, path)
            if history is _ABSENT:
                continue
            if not keyed:
                start = written.get(path, 0)
                tails[path] = (start, _tail(history, start))
                written[path] = len(history)
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
        # The WAL's framing, spelled out rather than via ``encode_frame``:
        # the repository's benchmark counts this module's ``encode_frame``
        # calls as WAL records and reconciles them with the WAL on disk.
        body = pickle.dumps(
            (_CHECKPOINT, head, tails), protocol=pickle.HIGHEST_PROTOCOL
        )
        if len(body) > MAX_FRAME_BYTES:
            raise FrameError(
                f"checkpoint of {len(body)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte frame cap"
            )
        self._file.write(_pack_header(len(body)) + body)
        # Flushed like a WAL record: survives SIGKILL of this process.
        self._file.flush()
        self._valid += 4 + len(body)
        self._written = written

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


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
    """One replica's durable storage: a WAL plus a checkpoint log.

    The store starts **not recording**: the owning replica first restores
    the last checkpoint, replays the WAL suffix (with :attr:`recording`
    off so replayed events are not re-appended), then calls
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
        self.checkpoints = CheckpointLog(
            os.path.join(root, f"replica-{node_id}.snap")
        )
        self.snapshot_path = self.checkpoints.path
        self.snapshot_interval = snapshot_interval
        self.fingerprint_interval = fingerprint_interval
        self.recording = False
        #: Record index of the last snapshot / fingerprint written.
        self._last_snapshot_at = 0
        self._last_fingerprint_at = 0
        #: ``(count, valid bytes)`` of the WAL as :meth:`recovery_records`
        #: read it, for :meth:`finish_recovery` to append after.
        self._scanned: Optional[Tuple[int, int]] = None

    # -- recovery ------------------------------------------------------
    def load_snapshot(self) -> Optional[Dict[str, Any]]:
        """The last complete checkpoint, folded (:class:`CheckpointLog`)."""
        return self.checkpoints.load()

    def recovery_records(self) -> List[Any]:
        """All complete WAL records, torn tail tolerated."""
        records, valid = self.wal.scan()
        self._scanned = (len(records), valid)
        return records

    def finish_recovery(self) -> None:
        """Truncate any torn tail, open for appending, start recording.

        Appends after the records :meth:`recovery_records` read, if it
        ran; the WAL is then read once per recovery, not twice.
        """
        if self._scanned is None:
            count = self.wal.open_for_append()
        else:
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
        """Append a checkpoint of ``data`` to the checkpoint log.

        ``data["wal_count"]`` is stamped here: replay after restore
        starts from this record index.
        """
        self.checkpoints.append(data, self.wal.count)
        self._last_snapshot_at = self.wal.count

    def close(self) -> None:
        self.recording = False
        self.wal.close()
        self.checkpoints.close()


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
    its own catch-up) — a single surviving correct peer suffices.

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

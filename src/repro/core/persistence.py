"""Durable replica state: write-ahead log, snapshots, peer catch-up.

A live replica process (``repro.transport.cluster``) can be SIGKILLed at
any instant.  Everything it must not lose flows through this module:

* an **append-only write-ahead log** (WAL) of applied events — delivered
  batches, applied CREDITs, executed consensus slots, and launched-but-
  not-yet-delivered broadcasts — each record a length-framed pickle (the
  same compact ``__reduce__`` wire encodings the transport ships, see
  :mod:`repro.transport.framing`), flushed before the event is applied;
* periodic **snapshots** (atomic tmp+rename) that bound replay time; the
  WAL itself is never truncated, because its delivery history doubles as
  the serving side of the peer **catch-up** protocol a restarted replica
  uses to fetch batches it missed while dead.

Recovery replays the WAL suffix past the snapshot onto the restored
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
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

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

#: Default number of WAL records between snapshots.
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


class WriteAheadLog:
    """Append-only record file: length-framed pickles, flushed per record.

    A SIGKILL can land mid-write, leaving a torn final record; recovery
    scans to the last complete record and truncates the torn tail before
    appending again (framing cannot resynchronize past a bad header).
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
        """``(record, end offset)`` of each complete record; a missing
        file, a corrupt header or a torn tail ends it silently."""
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return
        with fh:
            offset = 0
            while True:
                header = fh.read(4)
                length = _unpack_header(header)[0] if len(header) == 4 else 0
                if length == 0 or length > MAX_FRAME_BYTES:
                    return  # end of file, or a corrupt header
                body = fh.read(length)
                if len(body) < length:
                    return  # torn tail
                try:
                    record = pickle.loads(body)
                except Exception:
                    return
                offset += 4 + length
                yield record, offset

    # -- append-side writing -------------------------------------------
    def open_for_append(self) -> int:
        """Truncate any torn tail and open for appending.

        Returns the number of complete records already in the log.
        """
        records, valid = self.scan()
        self.count = len(records)
        self._file = open(self.path, "ab")
        if self._file.tell() != valid:
            self._file.truncate(valid)
            self._file.seek(valid)
        return self.count

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
    """One replica's durable storage: a WAL plus a snapshot slot.

    The store starts **not recording**: the owning replica first restores
    the snapshot, replays the WAL suffix (with :attr:`recording` off so
    replayed events are not re-appended), then calls
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
        self.snapshot_path = os.path.join(root, f"replica-{node_id}.snap")
        self.snapshot_interval = snapshot_interval
        self.fingerprint_interval = fingerprint_interval
        self.recording = False
        #: Record index of the last snapshot / fingerprint written.
        self._last_snapshot_at = 0
        self._last_fingerprint_at = 0

    # -- recovery ------------------------------------------------------
    def load_snapshot(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.snapshot_path, "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception as exc:  # truncated/corrupt snapshot: hard error
            raise WalCorruption(f"unreadable snapshot {self.snapshot_path}: {exc!r}")

    def recovery_records(self) -> List[Any]:
        """All complete WAL records, torn tail tolerated."""
        records, _ = self.wal.scan()
        return records

    def finish_recovery(self) -> None:
        """Truncate any torn tail, open for appending, start recording."""
        count = self.wal.open_for_append()
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
        """Atomically replace the snapshot (tmp + rename).

        ``data["wal_count"]`` is stamped here: replay after restore
        starts from this record index.
        """
        data = dict(data)
        data["wal_count"] = self.wal.count
        tmp = self.snapshot_path + ".tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(data, fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
        os.replace(tmp, self.snapshot_path)
        self._last_snapshot_at = self.wal.count

    def close(self) -> None:
        self.recording = False
        self.wal.close()


# ----------------------------------------------------------------------
# Peer catch-up (bounded, pull-based)
# ----------------------------------------------------------------------
class CatchUpRequest:
    """A recovering replica asks a peer for batches past its frontier.

    ``frontier`` maps origin → highest contiguously delivered broadcast
    sequence; ``extra`` holds out-of-order ``(origin, seq)`` pairs already
    delivered above the frontier.  The peer serves from its own WAL.
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
    frontier = request.frontier
    have: Set[Tuple[int, int]] = set(request.extra)
    batches: List[Tuple[int, int, Any]] = []
    complete = True
    for record in store.wal.iter_records():
        if record[0] != "deliver":
            continue
        origin, seq = record[1], record[2]
        if seq <= frontier.get(origin, 0) or (origin, seq) in have:
            continue
        if len(batches) >= limit:
            complete = False
            break
        have.add((origin, seq))
        batches.append((origin, seq, record[3]))
    return CatchUpReply(request.tag, tuple(batches), complete)

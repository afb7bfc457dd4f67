"""Canonical checkpoints and the compaction policy.

A snapshot is the whole database at one log position, written as
canonical JSON: the :func:`~repro.store.codec.database_to_spec` spec
(rows in each :class:`~repro.model.values.SetVal`'s canonical order)
plus the canonical atom order from
:func:`repro.model.encoding.canonical_atom_order`.  Because the
encoding is deterministic, *equal databases snapshot to identical
bytes* — which is how the crash-recovery tests and the CI smoke step
prove recovery exact: they diff :func:`canonical_state_bytes`, not
object graphs.

**Atomicity** comes from the classic tmp → fsync → rename → fsync the
directory dance: a snapshot file either exists completely or not at
all, so a crash mid-checkpoint just leaves the previous snapshot (or
none) in place and a longer WAL to replay.  The directory fsync makes
the rename itself durable before :func:`write_snapshot` returns;
without it a power loss after the WAL truncation could bring back the
old directory entry beside an empty log.  After the rename the WAL can
be truncated; a crash *between* rename and truncation is also safe
because records carry LSNs and replay skips those at or below the
snapshot's.
"""

from __future__ import annotations

import json
import os
import pathlib

from ..errors import ReproError
from ..model.encoding import canonical_atom_order
from ..model.schema import Database
from .codec import database_from_spec, database_to_spec

__all__ = [
    "CompactionPolicy",
    "SnapshotError",
    "canonical_state_bytes",
    "latest_snapshot",
    "load_snapshot",
    "write_snapshot",
]

PREFIX = "snapshot-"
SUFFIX = ".json"


class SnapshotError(ReproError):
    """A snapshot file is missing, unreadable, or malformed."""


def canonical_state_bytes(database: Database) -> bytes:
    """Deterministic canonical bytes of *database* — equal databases
    yield identical bytes (the recovery tests' byte-identity oracle)."""
    payload = {
        "atom_order": [atom.label for atom in canonical_atom_order(database)],
        "database": database_to_spec(database),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def snapshot_path(directory: pathlib.Path, lsn: int) -> pathlib.Path:
    return directory / f"{PREFIX}{lsn:016d}{SUFFIX}"


def write_snapshot(directory: pathlib.Path | str, lsn: int, database: Database) -> pathlib.Path:
    """Atomically write the snapshot at *lsn*; returns its path."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "lsn": lsn,
        "atom_order": [atom.label for atom in canonical_atom_order(database)],
        "database": database_to_spec(database),
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    final = snapshot_path(directory, lsn)
    tmp = final.with_suffix(".tmp")
    with open(tmp, "wb") as handle:
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, final)
    directory_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)
    return final


def latest_snapshot(directory: pathlib.Path | str) -> pathlib.Path | None:
    """The newest (highest-LSN) snapshot file, or ``None``."""
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return None
    candidates = sorted(
        entry
        for entry in directory.iterdir()
        if entry.name.startswith(PREFIX) and entry.name.endswith(SUFFIX)
    )
    return candidates[-1] if candidates else None


def load_snapshot(path: pathlib.Path | str) -> tuple:
    """``(lsn, database)`` from a snapshot file."""
    path = pathlib.Path(path)
    try:
        payload = json.loads(path.read_bytes().decode("utf-8"))
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"unreadable snapshot {path}: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("lsn"), int):
        raise SnapshotError(f"malformed snapshot {path}")
    try:
        database = database_from_spec(payload.get("database"))
    except ReproError as exc:
        raise SnapshotError(f"malformed snapshot {path}: {exc}") from exc
    return payload["lsn"], database


def prune_snapshots(directory: pathlib.Path | str, keep: int = 1) -> int:
    """Delete all but the newest *keep* snapshots; returns the count
    removed."""
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return 0
    candidates = sorted(
        entry
        for entry in directory.iterdir()
        if entry.name.startswith(PREFIX) and entry.name.endswith(SUFFIX)
    )
    removed = 0
    for stale in candidates[:-keep] if keep else candidates:
        stale.unlink(missing_ok=True)
        removed += 1
    return removed


class CompactionPolicy:
    """When to fold the WAL into a fresh snapshot.

    Compaction triggers once the log holds at least *max_records*
    records **or** *max_bytes* bytes since the last snapshot
    (whichever comes first; ``None`` disables that trigger).  The
    defaults favour small test logs; servers tune both via
    ``--wal-max-records`` / ``--wal-max-bytes``.
    """

    __slots__ = ("max_records", "max_bytes")

    def __init__(self, max_records: int | None = 256, max_bytes: int | None = 1 << 20):
        self.max_records = max_records
        self.max_bytes = max_bytes

    def should_compact(self, records: int, size: int) -> bool:
        if self.max_records is not None and records >= self.max_records:
            return True
        if self.max_bytes is not None and size >= self.max_bytes:
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"CompactionPolicy(max_records={self.max_records}, "
            f"max_bytes={self.max_bytes})"
        )

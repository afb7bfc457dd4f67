"""The append-only, CRC-checked write-ahead log.

One committed transaction is one *record*.  The on-disk format is a
text header line followed by the payload bytes::

    W1 <lsn> <crc32:08x> <payload-length>\\n
    <payload bytes>\\n

The payload is the transaction's effective delta as canonical JSON
(the :mod:`repro.store.codec` type-directed encoding), so the log is
human-inspectable with ``less`` and replayable with nothing but a JSON
parser.  The CRC covers the payload bytes; the header's length field
frames them — together they make every record self-validating.

**Durability contract.**  ``append`` writes the record and (with
``sync=True``, the default) fsyncs before returning: a transaction is
*durable* exactly when ``append`` returned.  **Torn-tail tolerance:**
a crash mid-append leaves a final record with a short payload, a
missing terminator, or a CRC mismatch; :func:`read_records` stops at
the first invalid byte and reports the length of the valid prefix, and
recovery truncates the file there — the log never yields a partial or
corrupt transaction, only the state at the last durable commit.

**Failed appends leave no bytes behind.**  An append that raises (a
short write, ``ENOSPC``, a failed flush) truncates the log back to
where the record began, so a later acknowledged record never lands
behind a torn one that recovery would stop at.  A failed ``fsync``
leaves the file's durable contents unknown: the log then refuses
every append with :class:`StoreError` until it is reopened (which
recovery does, re-reading what actually reached the disk).
"""

from __future__ import annotations

import json
import os
import pathlib
import zlib

from ..errors import ReproError

__all__ = ["StoreError", "WalError", "WalRecord", "WriteAheadLog", "read_records"]

#: Record-format magic; bump on incompatible layout changes.
MAGIC = b"W1"


class StoreError(ReproError):
    """The store directory is missing, already in use, or corrupt, or
    its log refuses appends after a failed fsync."""


class WalError(ReproError):
    """The log cannot be appended to (never raised for torn tails)."""


class WalRecord:
    """One decoded WAL record: ``lsn``, parsed JSON ``payload``, and the
    byte offset just past the record (``end``)."""

    __slots__ = ("lsn", "payload", "end")

    def __init__(self, lsn: int, payload: dict, end: int):
        self.lsn = lsn
        self.payload = payload
        self.end = end

    def __repr__(self) -> str:
        return f"WalRecord(lsn={self.lsn}, end={self.end})"


def encode_record(lsn: int, payload: dict) -> bytes:
    """One record's bytes (header line + payload + terminator)."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    header = b"%s %d %08x %d\n" % (MAGIC, lsn, crc, len(body))
    return header + body + b"\n"


def read_records(path: pathlib.Path | str) -> tuple:
    """``(records, valid_length)`` — every valid record from the start
    of the file, and the byte length of the valid prefix.

    Reading stops at the first malformed header, short payload,
    missing terminator, or CRC mismatch; everything before it is
    durable, everything from it on is a torn tail to be truncated.  A
    missing file reads as an empty log.
    """
    path = pathlib.Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], 0
    records: list = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            break  # torn header
        header = data[offset:newline]
        parts = header.split(b" ")
        if len(parts) != 4 or parts[0] != MAGIC:
            break
        try:
            lsn = int(parts[1])
            crc = int(parts[2], 16)
            length = int(parts[3])
        except ValueError:
            break
        if lsn < 0 or length < 0:
            break
        start = newline + 1
        end = start + length + 1  # payload + terminating newline
        if end > len(data) or data[end - 1 : end] != b"\n":
            break  # torn payload
        body = data[start : start + length]
        if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
            break  # corrupt payload
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            break
        if not isinstance(payload, dict):
            break
        records.append(WalRecord(lsn, payload, end))
        offset = end
    return records, offset


class WriteAheadLog:
    """The append end of one database's log.

    *sync* selects the durability point: ``True`` fsyncs every append
    (a record is durable when ``append`` returns — the default and the
    contract the recovery tests prove); ``False`` leaves flushing to
    the OS, trading the last few commits for throughput.
    """

    __slots__ = ("path", "sync", "appends", "bytes_written", "_handle", "_refusal")

    def __init__(self, path: pathlib.Path | str, sync: bool = True):
        self.path = pathlib.Path(path)
        self.sync = sync
        self.appends = 0
        self.bytes_written = 0
        self._handle = None
        self._refusal = None  # why appends are refused until reopened

    def open(self, truncate_at: int | None = None) -> None:
        """Open for appending; *truncate_at* drops a torn tail first."""
        if self._handle is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(self.path, "ab")
        if truncate_at is not None and handle.tell() > truncate_at:
            handle.truncate(truncate_at)
            handle.seek(truncate_at)
        self._handle = handle
        self._refusal = None

    def append(self, lsn: int, payload: dict) -> int:
        """Append one record; returns its byte size.  Durable on return
        when ``sync`` is set."""
        if self._handle is None:
            raise WalError(f"log {self.path} is not open")
        if self._refusal is not None:
            raise StoreError(
                f"log {self.path} refuses appends until reopened: {self._refusal}"
            )
        record = encode_record(lsn, payload)
        handle = self._handle
        start = handle.tell()
        try:
            handle.write(record)
            handle.flush()
        except BaseException:
            self._rewind(start)
            raise
        if self.sync:
            try:
                os.fsync(handle.fileno())
            except BaseException as exc:
                self._refusal = f"fsync failed ({exc!r})"
                self._rewind(start)
                raise
        self.appends += 1
        self.bytes_written += len(record)
        return len(record)

    def _rewind(self, offset: int) -> None:
        """Drop everything past *offset*: the bytes of a failed append.
        If that fails too the tail is unknown, so refuse further
        appends until the log is reopened."""
        try:
            self._handle.truncate(offset)
            self._handle.seek(offset)
        except OSError as exc:
            if self._refusal is None:
                self._refusal = f"cannot drop a failed append ({exc!r})"

    def size(self) -> int:
        if self._handle is not None:
            return self._handle.tell()
        try:
            return self.path.stat().st_size
        except FileNotFoundError:
            return 0

    def reset(self) -> None:
        """Truncate to empty (compaction: the snapshot now carries
        everything the log held)."""
        if self._handle is None:
            raise WalError(f"log {self.path} is not open")
        self._handle.truncate(0)
        self._handle.seek(0)
        self._handle.flush()
        if self.sync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

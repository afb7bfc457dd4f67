"""The write-ahead log: framing, CRC, torn tails, truncation, failed
appends."""

import errno

import pytest

from repro.model.schema import Database, Schema
from repro.model.types import parse_type
from repro.model.values import Atom, Tup
from repro.store.durable import DurableDatabase
from repro.store.wal import (
    StoreError,
    WalError,
    WriteAheadLog,
    encode_record,
    read_records,
)


def write_log(path, payloads, sync=False):
    log = WriteAheadLog(path, sync=sync)
    log.open()
    for lsn, payload in enumerate(payloads, start=1):
        log.append(lsn, payload)
    log.close()
    return path


class TestRoundTrip:
    def test_append_then_read(self, tmp_path):
        path = tmp_path / "wal.log"
        payloads = [{"assert": {"R": ["a"]}}, {"retract": {"R": ["b"]}}]
        write_log(path, payloads)
        records, valid = read_records(path)
        assert [record.payload for record in records] == payloads
        assert [record.lsn for record in records] == [1, 2]
        assert valid == path.stat().st_size

    def test_missing_file_reads_empty(self, tmp_path):
        records, valid = read_records(tmp_path / "absent.log")
        assert records == [] and valid == 0

    def test_record_ends_partition_the_file(self, tmp_path):
        path = tmp_path / "wal.log"
        write_log(path, [{"a": i} for i in range(5)])
        records, valid = read_records(path)
        assert records[-1].end == valid
        sizes = [len(encode_record(r.lsn, r.payload)) for r in records]
        ends = []
        offset = 0
        for size in sizes:
            offset += size
            ends.append(offset)
        assert [record.end for record in records] == ends

    def test_counters(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal.log", sync=False)
        log.open()
        size = log.append(1, {"x": 1})
        assert log.appends == 1 and log.bytes_written == size == log.size()
        log.close()


class TestTornTails:
    def test_every_truncation_yields_a_valid_prefix(self, tmp_path):
        """The torn-tail property at the log layer: cutting the file at
        ANY byte offset, read_records returns exactly the records whose
        bytes fully survived."""
        path = tmp_path / "wal.log"
        write_log(path, [{"n": i, "pad": "x" * i} for i in range(4)])
        data = path.read_bytes()
        full_records, _ = read_records(path)
        ends = [0] + [record.end for record in full_records]
        torn = tmp_path / "torn.log"
        for cut in range(len(data) + 1):
            torn.write_bytes(data[:cut])
            records, valid = read_records(torn)
            survived = max(end for end in ends if end <= cut)
            assert valid == survived
            assert len(records) == ends.index(survived)

    def test_corrupt_crc_stops_reading(self, tmp_path):
        path = tmp_path / "wal.log"
        write_log(path, [{"n": 1}, {"n": 2}])
        records, _ = read_records(path)
        data = bytearray(path.read_bytes())
        # Flip one payload byte of the second record.
        data[records[0].end + len(b"W1 2 ")] ^= 0xFF
        path.write_bytes(bytes(data))
        survivors, valid = read_records(path)
        assert len(survivors) == 1 and valid == records[0].end

    def test_garbage_header_stops_reading(self, tmp_path):
        path = tmp_path / "wal.log"
        write_log(path, [{"n": 1}])
        end = read_records(path)[1]
        with open(path, "ab") as handle:
            handle.write(b"ZZ not a header\n")
        survivors, valid = read_records(path)
        assert len(survivors) == 1 and valid == end

    def test_open_truncates_the_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        write_log(path, [{"n": 1}])
        _, valid = read_records(path)
        with open(path, "ab") as handle:
            handle.write(b"W1 2 00000000 999\ntorn")
        log = WriteAheadLog(path, sync=False)
        log.open(truncate_at=valid)
        assert path.stat().st_size == valid
        log.append(2, {"n": 2})
        log.close()
        records, _ = read_records(path)
        assert [record.lsn for record in records] == [1, 2]


class TestLifecycle:
    def test_append_requires_open(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal.log")
        with pytest.raises(WalError):
            log.append(1, {})

    def test_reset_empties_the_log(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal.log", sync=False)
        log.open()
        log.append(1, {"n": 1})
        log.reset()
        assert log.size() == 0
        log.append(2, {"n": 2})
        log.close()
        records, _ = read_records(log.path)
        assert [record.lsn for record in records] == [2]


def _no_space():
    return OSError(errno.ENOSPC, "No space left on device")


def _edge(source, target):
    return {"E": [Tup([Atom(source), Atom(target)])]}


class TestFailedAppends:
    def test_torn_write_never_hides_a_later_commit(self, tmp_path):
        """A write that lands half its record and then fails must not
        leave those bytes in front of the next, acknowledged record —
        recovery would stop at them and lose the acknowledged commit."""
        schema = Schema({"E": parse_type("[U, U]")})
        directory = tmp_path / "db"
        durable = DurableDatabase.create(
            directory, Database(schema, {"E": set()}), sync=False
        )
        assert durable.apply(_edge("a", "b")).lsn == 1
        handle = durable.wal._handle
        write = handle.write

        def torn_write(data):
            write(data[: len(data) // 2])
            raise _no_space()

        handle.write = torn_write
        with pytest.raises(OSError):
            durable.apply(_edge("b", "c"))
        del handle.write
        acknowledged = durable.apply(_edge("c", "d"))
        assert acknowledged.lsn == 2
        durable.close()

        recovered = DurableDatabase.open(directory, sync=False)
        assert recovered.lsn == 2
        assert recovered.database == acknowledged.database
        recovered.close()

    def test_failed_fsync_refuses_appends_until_reopened(self, tmp_path, monkeypatch):
        path = tmp_path / "wal.log"
        log = WriteAheadLog(path, sync=True)
        log.open()
        log.append(1, {"n": 1})
        durable_size = log.size()

        def failing_fsync(fd):
            raise _no_space()

        monkeypatch.setattr("repro.store.wal.os.fsync", failing_fsync)
        with pytest.raises(OSError):
            log.append(2, {"n": 2})
        assert log.size() == durable_size  # the failed record is gone
        monkeypatch.undo()
        with pytest.raises(StoreError):
            log.append(2, {"n": 2})
        log.close()
        log.open()
        log.append(2, {"n": 2})
        log.close()
        records, _ = read_records(path)
        assert [record.lsn for record in records] == [1, 2]

"""Checkpoint durability: the snapshot's rename is on disk before the
WAL it replaces is truncated."""

import os
import stat

from repro.model.schema import Database, Schema
from repro.model.types import parse_type
from repro.store.codec import rows_from_json
from repro.store.durable import DurableDatabase
from repro.store.snapshot import load_snapshot
from repro.store.wal import WriteAheadLog


def _seed_db():
    schema = Schema({"E": parse_type("[U, U]"), "S": parse_type("U")})
    return Database(schema, {"E": {("a", "b")}, "S": {"a"}})


class TestCheckpointOrder:
    def test_file_fsync_rename_directory_fsync_then_wal_reset(
        self, tmp_path, monkeypatch
    ):
        durable = DurableDatabase.create(tmp_path / "db", _seed_db(), sync=False)
        schema = durable.database.schema
        durable.apply({"E": rows_from_json([["b", "c"]], schema.rtype("E"), "E")}, {})
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        real_reset = WriteAheadLog.reset

        def fsync(fd):
            kind = "directory" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            events.append(f"fsync {kind}")
            real_fsync(fd)

        def replace(source, target):
            events.append("replace")
            real_replace(source, target)

        def reset(wal):
            events.append("wal.reset")
            real_reset(wal)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(WriteAheadLog, "reset", reset)
        path = durable.snapshot()
        durable.close()

        # sync=False: the WAL itself never fsyncs, so every fsync seen
        # is the checkpoint's own.
        assert events == ["fsync file", "replace", "fsync directory", "wal.reset"]
        lsn, database = load_snapshot(path)
        assert lsn == 1
        assert database == durable.database

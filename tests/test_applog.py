"""The one durable log and the two logs built on it.

:class:`~repro.applog.AppendLog` owns the format, the torn-tail heal,
warn-and-skip reading and compaction.  The parametrized tests drive the
same contract through each owner's public API — the results store and
the run registry — so a log that stops using the shared module shows up
here.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.applog import AppendLog, atomic_write, decode, encode
from repro.experiments.journal import RunJournal
from repro.experiments.store import ResultStore
from repro.faults.chaos import truncate_tail
from repro.telemetry.session import RunRegistry

TAGS = ("alpha", "bravo", "charlie")


@dataclass
class FakeResult:
    """Minimal picklable stand-in for a SimResult."""

    cycles: int
    wall_seconds: float = 1.0


# ----------------------------------------------------------------------
# The two owners, behind one interface: append a tagged record, read
# the tags back in order, name the file.
# ----------------------------------------------------------------------


class StoreLog:
    @staticmethod
    def _key(tag):
        # Every key starts with '7', so all records share one shard.
        return "7" + hashlib.sha256(tag.encode()).hexdigest()[1:]

    def append(self, root, tag):
        ResultStore(root).put(self._key(tag), FakeResult(cycles=1),
                              workload=tag)

    def read(self, root):
        return [m["workload"] for m in ResultStore(root).records()]

    def path(self, root):
        return root / "shard-7.jsonl"


class RegistryLog:
    def append(self, root, tag):
        RunRegistry(root).register_run(root / tag)

    def read(self, root):
        return [Path(e["dir"]).name for e in RunRegistry(root).entries()]

    def path(self, root):
        return root / "registry.jsonl"


LOGS = {"store": StoreLog(), "registry": RegistryLog()}


@pytest.fixture(params=sorted(LOGS))
def log(request):
    return LOGS[request.param]


class TestEveryLog:
    def test_round_trip(self, log, tmp_path):
        for tag in TAGS:
            log.append(tmp_path, tag)
        assert log.read(tmp_path) == list(TAGS)
        for line in log.path(tmp_path).read_bytes().splitlines():
            assert decode(line) is not None

    def test_next_append_survives_torn_tail(self, log, tmp_path, capsys):
        log.append(tmp_path, "alpha")
        truncate_tail(log.path(tmp_path), nbytes=5)  # crash mid-append
        log.append(tmp_path, "bravo")
        assert log.read(tmp_path) == ["bravo"]
        assert "skipped 1 corrupt record(s)" in capsys.readouterr().err

    def test_checksum_mismatch_skipped_with_warning(self, log, tmp_path,
                                                    capsys):
        for tag in TAGS:
            log.append(tmp_path, tag)
        path = log.path(tmp_path)
        # Same length, still valid JSON: only the CRC can catch it.
        path.write_bytes(path.read_bytes().replace(b"bravo", b"BRAVO"))
        capsys.readouterr()
        assert log.read(tmp_path) == ["alpha", "charlie"]
        err = capsys.readouterr().err
        assert f"{path}: skipped 1 corrupt record(s)" in err
        assert "checksum mismatch" in err


# ----------------------------------------------------------------------
# AppendLog itself
# ----------------------------------------------------------------------


def _append_one(path, tag, started):
    started.set()
    AppendLog(path).append({"tag": tag})


class TestAppendLog:
    def test_line_format(self):
        line = encode({"b": 1, "a": [2, 3]})
        assert line.endswith(b"\n")
        record = json.loads(line)
        assert list(record) == ["b", "a", "crc"]  # crc last, order kept
        assert decode(line) == {"b": 1, "a": [2, 3]}
        assert decode(line.replace(b'"b": 1', b'"b": 4')) is None
        assert decode(b'{"b": 1}') is None  # no crc, no trust
        assert decode(b"torn garbage") is None

    def test_read_warns_once_and_counts(self, tmp_path, capsys):
        log = AppendLog(tmp_path / "log.jsonl")
        log.append({"n": 1})
        with open(log.path, "ab") as fh:
            fh.write(b"junk\n\n"
                     + encode({"n": 2}).replace(b'"n": 2', b'"n": 3'))
        log.append({"n": 4})
        assert log.read() == [{"n": 1}, {"n": 4}]
        assert log.corrupt == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"{log.path}: skipped 2 corrupt record(s)" in err[0]

    def test_parse_rejection_counts_as_corrupt(self, tmp_path):
        log = AppendLog(tmp_path / "log.jsonl")
        log.append({"v": 1, "n": 1})
        log.append({"v": 2, "n": 2})
        assert log.read(lambda r: r if r["v"] == 2 else None) \
            == [{"v": 2, "n": 2}]
        assert log.corrupt == 1

    def test_missing_file_reads_empty(self, tmp_path):
        log = AppendLog(tmp_path / "absent.jsonl")
        assert log.read() == []
        assert not log.path.exists()

    def test_compact_rewrites_to_kept_records(self, tmp_path):
        log = AppendLog(tmp_path / "log.jsonl")
        for n in range(5):
            log.append({"n": n})
        log.compact(lambda records: records[-2:])
        assert log.path.read_bytes() == encode({"n": 3}) + encode({"n": 4})
        log.append({"n": 5})
        assert [r["n"] for r in log.read()] == [3, 4, 5]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl"]

    def test_append_from_another_process_waits_out_compaction(
            self, tmp_path):
        log = AppendLog(tmp_path / "log.jsonl")
        log.append({"tag": "old"})
        # Spawned, not forked: a forked child would inherit this
        # process's descriptor, and with it the exclusive lock.
        mp = multiprocessing.get_context("spawn")
        started = mp.Event()
        writers = []

        def keep(records):
            writer = mp.Process(target=_append_one,
                                args=(log.path, "late", started))
            writer.start()
            assert started.wait(timeout=60)
            writer.join(timeout=0.5)  # blocked on the compaction lock
            writers.append(writer)
            return records

        log.compact(keep)
        writers[0].join(timeout=30)
        assert writers[0].exitcode == 0
        assert [r["tag"] for r in log.read()] == ["old", "late"]

    def test_compaction_under_concurrent_appends_loses_nothing(
            self, tmp_path):
        log = AppendLog(tmp_path / "log.jsonl")
        threads, per_thread = 4, 40  # more writers than cores

        def write(t):
            for i in range(per_thread):
                AppendLog(log.path).append({"t": t, "i": i})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writers = [threading.Thread(target=write, args=(t,))
                       for t in range(threads)]
            for writer in writers:
                writer.start()
            while any(w.is_alive() for w in writers):
                log.compact(lambda records: records)
            for writer in writers:
                writer.join(timeout=60)
                assert not writer.is_alive()
        finally:
            sys.setswitchinterval(interval)
        records = log.read()
        assert log.corrupt == 0
        assert sorted((r["t"], r["i"]) for r in records) == [
            (t, i) for t in range(threads) for i in range(per_thread)]


# ----------------------------------------------------------------------
# The races the shared module closes
# ----------------------------------------------------------------------


class TestRaces:
    def test_registration_during_prune_survives(self, tmp_path,
                                                monkeypatch):
        root = tmp_path / "reg"
        registry = RunRegistry(root)
        registry.register_run(tmp_path / "a", status="completed")
        real_replace = os.replace
        late = []

        def replace(src, dst):
            # Another registry registers between prune's read of the
            # live records and its rename of the compacted file.
            other = RunRegistry(root)
            thread = threading.Thread(target=other.register_run,
                                      args=(tmp_path / "b",))
            thread.start()
            thread.join(timeout=0.5)
            late.append(thread)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        registry.prune()
        monkeypatch.undo()
        late[0].join(timeout=30)
        assert not late[0].is_alive()
        assert [Path(e["dir"]).name for e in registry.entries()] \
            == ["a", "b"]

    def test_two_journals_open_one_fresh_directory(self, tmp_path,
                                                   monkeypatch):
        real_replace = os.replace
        both_written = threading.Barrier(2, timeout=30)

        def replace(src, dst):
            both_written.wait()  # neither renames until both wrote
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        errors = []

        def open_journal():
            try:
                RunJournal(tmp_path / "j", context_key={"seed": 1})
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=open_journal)
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        assert json.loads((tmp_path / "j" / "meta.json").read_text()) \
            == {"seed": 1}
        assert not list((tmp_path / "j").glob("*.tmp"))

    def test_atomic_write_replaces_whole_file(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write(target, b"old")
        atomic_write(target, b"new")
        assert target.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

"""Two processes appending to one durable log heal safely.

The store shards and the run registry are both
:class:`~repro.applog.AppendLog` files: single-write O_APPEND
records plus a heal-on-first-append of any torn trailing line.  That
contract has to hold when *two* writer processes share the file: each
may race the torn-tail probe, but because every record lands in one
complete ``os.write`` the worst outcome is an extra blank heal line —
never a lost or double-counted record, and never a record glued onto
garbage.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.chaos import truncate_tail
from repro.experiments.store import ResultStore
from repro.telemetry.session import RunRegistry

PER_WRITER = 20


@dataclass
class FakeResult:
    """Minimal picklable stand-in for a SimResult."""

    cycles: int
    ops: int = 100
    wall_seconds: float = 1.0
    protocol: str = "hmg"
    extra: dict = field(default_factory=dict)


def _key(tag: str, i: int) -> str:
    # All keys start with '7' so every writer lands on the same shard.
    return f"7{tag}{i:03d}" + "0" * 58


def _store_writer(root, tag):
    store = ResultStore(root)
    for i in range(PER_WRITER):
        store.put(_key(tag, i), FakeResult(cycles=i + 1),
                  workload="CoMD", protocol="hmg")
    store.close()


def _registry_writer(root, tag):
    registry = RunRegistry(root)
    for i in range(PER_WRITER):
        registry.register_run(root / f"{tag}{i}", status="completed")


def _expected():
    return sorted(f"{tag}{i}" for tag in ("a", "b")
                  for i in range(PER_WRITER))


def _run_writers(target, root):
    procs = [multiprocessing.Process(target=target, args=(root, tag))
             for tag in ("a", "b")]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0


class TestStoreConcurrentWriters:
    def test_torn_tail_healed_no_loss_no_dup(self, tmp_path, capsys):
        root = tmp_path / "store"
        seed = ResultStore(root)
        seed.put(_key("seed", 0), FakeResult(cycles=9))
        seed.close()
        shard = next(root.glob("shard-*.jsonl"))
        truncate_tail(shard, nbytes=5)  # crash mid-append

        _run_writers(_store_writer, root)

        # Every surviving record parses; each written key appears in
        # the raw shard exactly once (no loss, no double-append).
        fresh = ResultStore(root)
        raw = shard.read_bytes()
        for tag in ("a", "b"):
            for i in range(PER_WRITER):
                key = _key(tag, i)
                assert raw.count(key.encode()) == 1
                stored = fresh.get(key)
                assert stored is not None
                assert stored.cycles == i + 1
                assert stored.wall_seconds == 0.0  # stripped on put
        # The torn seed record is the one legitimate casualty.
        assert fresh.get(_key("seed", 0)) is None
        scan = fresh.scan()
        assert scan["records"] == 2 * PER_WRITER
        assert scan["corrupt_records"] == 1  # just the healed torn line
        fresh.close()

    def test_concurrent_heal_leaves_only_blank_lines(self, tmp_path):
        root = tmp_path / "store"
        seed = ResultStore(root)
        seed.put(_key("seed", 0), FakeResult(cycles=9))
        seed.close()
        shard = next(root.glob("shard-*.jsonl"))
        truncate_tail(shard, nbytes=5)

        _run_writers(_store_writer, root)

        # However the two healers raced, every line is either blank,
        # the single isolated torn line, or a complete parsable record.
        complete, blank = 0, 0
        for line in shard.read_bytes().split(b"\n"):
            if not line.strip():
                blank += 1
            elif line.startswith(b'{"blob"') or b'"key"' in line:
                complete += 1
        assert complete >= 2 * PER_WRITER


class TestRegistryConcurrentWriters:
    def test_torn_tail_healed_no_loss_no_dup(self, tmp_path, capsys):
        root = tmp_path / "reg"
        RunRegistry(root).register_run(root / "seed")
        truncate_tail(root / "registry.jsonl", nbytes=5)

        _run_writers(_registry_writer, root)

        entries = RunRegistry(root).entries()
        names = [Path(e["dir"]).name for e in entries]
        # Every run is present, written once; the torn seed is gone.
        assert sorted(names) == _expected()
        raw = (root / "registry.jsonl").read_bytes()
        assert all(raw.count(f'/{name}"'.encode()) == 1 for name in names)
        assert all(e["info"]["status"] == "completed" for e in entries)
        assert "skipped 1 corrupt record(s)" in capsys.readouterr().err

"""Persistent content-addressed results store.

The within-run cell memo (:class:`~repro.experiments.runner.ExperimentContext`)
makes repeated cells free *inside* one process; this module makes them
free *across* runs, branches and users.  A :class:`ResultStore` is a
directory of 16 :class:`~repro.applog.AppendLog` shards keyed by cell
fingerprint (:func:`store_key`): every completed simulation is
serialized once, and any later sweep that revisits the cell — same
workload, protocol, full platform config, placement, fault plan, seed,
trace scale, trace geometry, engine and simulator source — replays the
stored :class:`~repro.engine.stats.SimResult` without touching an
engine.

Records follow the durability contract of DESIGN.md §13.  A record
carries the store's schema version and the result as a base64,
zlib-compressed pickle; a record that is torn, fails its CRC, has
another version or does not decompress and unpickle is a miss, and the
cell is re-simulated, after which the fresh record supersedes the bad
one (last writer wins on duplicate keys).

``wall_seconds`` is stripped on ``put``: a replayed result spent no
engine time, and the zero is the honest signal warm-store gates assert
on.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import pickle
import sys
import zlib
from pathlib import Path

from repro.applog import AppendLog

#: Record schema version; bump on any incompatible change (old records
#: then read as misses and are recomputed).  2: the pickle is
#: zlib-compressed, and keys name the trace geometry and the source.
#: 3: keys name the engine.
SCHEMA = 3

#: Shard fan-out: records land in shard-<first hex digit>.jsonl.
_SHARD_DIGITS = "0123456789abcdef"

#: The ``repro`` package directory.
_PACKAGE = Path(__file__).resolve().parents[1]

#: The parts of the package ``simulate`` imports: what a cell's result
#: can depend on.  Drivers, the store and telemetry are left out, so
#: editing them keeps the store warm.
SOURCE_PARTS = ("config.py", "core", "engine", "faults", "gpu",
                "interconnect", "memsys", "trace")


def source_fingerprint(package: Path) -> str:
    """Hex digest of the path and bytes of every ``.py`` file of
    :data:`SOURCE_PARTS` under ``package``."""
    digest = hashlib.sha256()
    for part in SOURCE_PARTS:
        path = package / part
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            digest.update(file.relative_to(package).as_posix().encode())
            digest.update(b"\0")
            digest.update(file.read_bytes())
    return digest.hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def _running_source() -> str:
    """The source fingerprint of this process's package, read once."""
    return source_fingerprint(_PACKAGE)


def store_key(cell_key: tuple, seed: int, ops_scale: float, *,
              trace: str, engine: str) -> str:
    """Content address of one cell's result
    (:attr:`repro.experiments.parallel.Cell.store_key`).

    ``cell_key`` is :func:`repro.experiments.parallel.cell_key` — the
    full (workload, protocol, config fingerprint, placement, fault-plan
    fingerprint, sanitize) tuple — extended here with the rest of the
    cell: the run seed, the trace scale, ``trace`` (the
    :func:`~repro.trace.cache.geometry_fingerprint` of the config the
    cell's trace was generated against) and ``engine``; and with the
    fingerprint of the simulator's source (:func:`source_fingerprint`).
    The schema version is folded in so a format change invalidates the
    whole store at once.
    """
    payload = repr((SCHEMA, cell_key, seed, ops_scale, trace, engine,
                    _running_source()))
    return hashlib.sha256(payload.encode()).hexdigest()


def _valid(record: dict) -> bool:
    """Whether ``record`` is a store record of the current schema."""
    return (record.get("v") == SCHEMA
            and isinstance(record.get("key"), str)
            and isinstance(record.get("blob"), str))


def _result(record: dict):
    """(key, SimResult) from one record; None when it does not unpickle."""
    if not _valid(record):
        return None
    try:
        return record["key"], pickle.loads(
            zlib.decompress(base64.b64decode(record["blob"])))
    except Exception:
        return None


def _meta(record: dict):
    """A record's metadata, without the pickle cost."""
    if not _valid(record):
        return None
    return {"key": record["key"], "workload": record.get("workload"),
            "protocol": record.get("protocol")}


class ResultStore:
    """One store directory of sharded, checksummed result records."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._logs = {digit: AppendLog(self.root / f"shard-{digit}.jsonl")
                      for digit in _SHARD_DIGITS}
        #: Parsed shards: shard digit -> {key: SimResult}.
        self._shards: dict = {}
        self.hits = 0
        self.misses = 0
        self.puts = 0

    @property
    def corrupt_records(self) -> int:
        """Bad lines skipped by every read of this store's shards."""
        return sum(log.corrupt for log in self._logs.values())

    def _load_shard(self, digit: str) -> dict:
        """Parse one shard once; corrupt records warn and skip."""
        records = self._shards.get(digit)
        if records is None:
            # Last writer wins on duplicate keys.
            records = self._shards[digit] = dict(
                self._logs[digit].read(_result))
        return records

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def peek(self, key: str):
        """The stored result for ``key``, or None; counts nothing."""
        return self._load_shard(key[0]).get(key)

    def get(self, key: str):
        """The stored result for ``key``, or None (counted as a miss)."""
        result = self.peek(key)
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result, *, workload: str = None,
            protocol: str = None) -> None:
        """Persist one completed cell (atomic single-write append).

        ``workload``/``protocol`` ride along as human-readable context
        for anyone inspecting shards; the key alone is authoritative.
        """
        import copy

        stored = copy.copy(result)
        stored.wall_seconds = 0.0  # replays spend no engine time
        blob = base64.b64encode(zlib.compress(
            pickle.dumps(stored, protocol=pickle.HIGHEST_PROTOCOL)
        )).decode("ascii")
        self._logs[key[0]].append({
            "v": SCHEMA,
            "key": key,
            "workload": workload,
            "protocol": protocol,
            "blob": blob,
        })
        self._load_shard(key[0])[key] = stored
        self.puts += 1

    def scan(self) -> dict:
        """Load every shard; returns totals (for tools and tests)."""
        for digit in _SHARD_DIGITS:
            self._load_shard(digit)
        return {
            "records": sum(len(s) for s in self._shards.values()),
            "corrupt_records": self.corrupt_records,
        }

    def stats(self) -> dict:
        """Hit/miss/corruption counters (manifest material)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt_records": self.corrupt_records,
        }

    def close(self) -> None:
        """Nothing to release: every append opens and closes its shard."""

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()

    # ------------------------------------------------------------------
    # Query API (shared by the ``store`` CLI and the HTTP service)
    # ------------------------------------------------------------------

    def records(self) -> list:
        """Metadata for every live record, without unpickling blobs.

        One dict per unique key (last writer wins), in shard order:
        ``{"key", "workload", "protocol", "shard"}``.  Corrupt lines
        count in ``corrupt_records`` exactly as :meth:`scan` does.
        """
        merged: dict = {}
        for digit in _SHARD_DIGITS:
            log = self._logs[digit]
            for meta in log.read(_meta):
                meta["shard"] = log.path.name
                merged[meta["key"]] = meta
        return list(merged.values())

    def summary(self) -> dict:
        """Scan digest: totals plus per-protocol/workload counts."""
        records = self.records()
        by_protocol: dict = {}
        by_workload: dict = {}
        for meta in records:
            if meta["protocol"]:
                by_protocol[meta["protocol"]] = \
                    by_protocol.get(meta["protocol"], 0) + 1
            if meta["workload"]:
                by_workload[meta["workload"]] = \
                    by_workload.get(meta["workload"], 0) + 1
        return {
            "dir": str(self.root),
            "records": len(records),
            "corrupt_records": self.corrupt_records,
            "by_protocol": dict(sorted(by_protocol.items())),
            "by_workload": dict(sorted(by_workload.items())),
            "cells": sorted(records, key=lambda m: m["key"]),
        }


# ----------------------------------------------------------------------
# ``python -m repro.experiments store scan|get KEY`` — offline queries
# ----------------------------------------------------------------------


def build_cli_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments store",
        description="Query a content-addressed results store offline — "
                    "the same code path the observability service's "
                    "/store endpoints answer from.",
    )
    parser.add_argument("command", choices=("scan", "get"),
                        help="scan: list every stored cell; "
                             "get: digest one cell by its store key")
    parser.add_argument("key", nargs="?", default=None,
                        help="store key (sha256 hex) for 'get'")
    parser.add_argument("--store", default=".repro-store", metavar="DIR",
                        help="store directory (default .repro-store)")
    parser.add_argument("--json", action="store_true",
                        help="emit raw JSON instead of a table")
    return parser


def cli_main(argv=None) -> int:
    """Entry point for the ``store`` subcommand; returns an exit code."""
    args = build_cli_parser().parse_args(argv)
    root = Path(args.store)
    if not root.is_dir():
        print(f"store: no store directory at {root}", file=sys.stderr)
        return 2
    store = ResultStore(root)
    try:
        if args.command == "scan":
            summary = store.summary()
            if args.json:
                print(json.dumps(summary, indent=2, sort_keys=True))
                return 0
            print(f"store {summary['dir']}: {summary['records']} "
                  f"record(s), {summary['corrupt_records']} corrupt")
            for meta in summary["cells"]:
                print(f"  {meta['key'][:16]}  "
                      f"{meta['workload'] or '?'}/"
                      f"{meta['protocol'] or '?'}  ({meta['shard']})")
            return 0
        if args.key is None:
            print("store get: missing KEY", file=sys.stderr)
            return 2
        result = store.get(args.key)
        if result is None:
            print(f"store: no record under key {args.key}",
                  file=sys.stderr)
            return 1
        from repro.telemetry.aggregate import result_digest

        print(json.dumps(result_digest(result), indent=2,
                         sort_keys=True))
        return 0
    finally:
        store.close()

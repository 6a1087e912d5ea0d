"""Persistent binary trace cache.

Trace synthesis is pure: the op stream depends only on the workload
spec, the platform *geometry* the generators scale against, the seed
and the trace-length multiplier.  Regenerating the same trace for every
driver invocation (and in every parallel worker) is therefore wasted
work — a sweep at production scale spends minutes in numpy before the
first op is simulated.  :class:`TraceCache` persists each generated
trace to disk in a compact packed format so later runs (and sibling
worker processes) deserialize instead of resynthesize.

Format (little-endian)::

    magic   4s   b"RTRC"
    version H    format revision (bump on any layout change)
    hlen    I    length of the JSON metadata blob
    header  ...  JSON: name/footprint_bytes/kernels/meta/ops + cache key
    ops     ...  zlib (level 1) of ops * 18 bytes, each one
                 repro.trace.batch.OP_DTYPE record (op, address, gpu,
                 gpm, cta, scope, size)
    crc     I    zlib.crc32 of the stored (compressed) op payload

The op payload is the trace's columns packed with one ``tobytes()``
and loads back, once decompressed, as columns with one
``np.frombuffer`` (:class:`~repro.trace.batch.BatchTrace`): a loaded
:class:`~repro.trace.stream.Trace` builds its ``MemOp`` list only if a
scalar engine iterates it.  Compression shrinks the payload about
tenfold for a few milliseconds per sweep.

Robustness: files are written with :func:`repro.applog.atomic_write`,
and :meth:`TraceCache.load` answers ``None`` — after a
``warnings.warn`` — for anything it cannot fully validate (bad magic,
foreign version, truncated file, CRC mismatch, a payload that does not
decompress to the header's op count, key mismatch from a hash
collision, an op with an unknown kind or scope or a zero size).  A
corrupt cache can cost regeneration time but never wrong results.
"""

from __future__ import annotations

import hashlib
import json
import struct
import warnings
import zlib
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.applog import atomic_write
from repro.core.types import OpType, Scope
from repro.trace.batch import OP_DTYPE, BatchTrace, as_batch
from repro.trace.stream import Trace

MAGIC = b"RTRC"
FORMAT_VERSION = 2

_HEAD = struct.Struct("<4sHI")


def _valid(values) -> np.ndarray:
    """Lookup table over a one-byte field: True at each valid value."""
    table = np.zeros(256, dtype=bool)
    table[[int(v) for v in values]] = True
    return table


_KIND_OK = _valid(OpType)
_SCOPE_OK = _valid(Scope)

#: SystemConfig fields trace generation actually reads: topology, the
#: line/page geometry, the directory-entry granularity the sharing
#: patterns align to, and the capacities the synthetic working sets
#: scale against.  Latencies, bandwidths and message sizes shape the
#: *simulation* of a trace, never its contents, and deliberately do not
#: invalidate cached traces.
_GEOMETRY_FIELDS = (
    "num_gpus", "gpms_per_gpu", "sms_per_gpm", "max_warps_per_sm",
    "line_size", "page_size",
    "l1_bytes_per_sm", "l1_slices_per_gpm", "l1_ways",
    "l2_bytes_per_gpu", "l2_ways", "dir_lines_per_entry",
    "dram_bytes_per_gpu", "scale",
)


def geometry_fingerprint(cfg) -> str:
    """Hex digest of the config fields a generated trace depends on."""
    blob = ";".join(
        f"{name}={getattr(cfg, name)!r}" for name in _GEOMETRY_FIELDS
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def trace_key(workload: str, cfg, seed: int, ops_scale: float) -> str:
    """Filename-safe cache key for one (workload, geometry, seed,
    ops_scale) combination."""
    return (f"{workload}-{geometry_fingerprint(cfg)}"
            f"-s{seed}-o{ops_scale:g}")


class TraceCacheError(ValueError):
    """A cache file failed validation (callers normally never see this:
    :meth:`TraceCache.load` converts it into a warning + ``None``)."""


def _check_ops(batch: BatchTrace) -> None:
    """Reject the first op with an unknown kind or scope, or a zero
    size (which ``MemOp`` would refuse)."""
    bad_enum = ~(_KIND_OK[batch.kind] & _SCOPE_OK[batch.scope])
    bad = np.flatnonzero(bad_enum | (batch.size == 0))
    if not bad.size:
        return
    i = int(bad[0])
    if bad_enum[i]:
        raise TraceCacheError(f"op {i}: invalid kind/scope "
                              f"({batch.kind[i]}, {batch.scope[i]})")
    raise TraceCacheError(f"op {i}: size 0 is not positive")


class TraceCache:
    """Directory of packed trace files keyed by :func:`trace_key`."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Generation/deserialization counters (observability only).
        self.hits = 0
        self.misses = 0

    def path(self, workload: str, cfg, seed: int,
             ops_scale: float) -> Path:
        return self.root / (trace_key(workload, cfg, seed, ops_scale)
                            + ".trc")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def store(self, workload: str, cfg, seed: int, ops_scale: float,
              trace: Trace) -> Path:
        """Persist one trace atomically; returns the cache file path."""
        key = trace_key(workload, cfg, seed, ops_scale)
        header = json.dumps({
            "key": key,
            "name": trace.name,
            "footprint_bytes": trace.footprint_bytes,
            "kernels": trace.kernels,
            "meta": trace.meta,
            "ops": len(trace),
        }).encode()
        payload = zlib.compress(as_batch(trace).to_payload(), 1)
        target = self.path(workload, cfg, seed, ops_scale)
        # Parallel workers may race to populate the same key; each
        # replace is atomic (last writer wins, contents equal).
        atomic_write(target, b"".join((
            _HEAD.pack(MAGIC, FORMAT_VERSION, len(header)), header,
            payload, struct.pack("<I", zlib.crc32(payload)))))
        return target

    def _parse(self, raw: bytes, expect_key: str) -> Trace:
        if len(raw) < _HEAD.size:
            raise TraceCacheError("file shorter than its fixed header")
        magic, version, hlen = _HEAD.unpack_from(raw)
        if magic != MAGIC:
            raise TraceCacheError(f"bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise TraceCacheError(
                f"format version {version} (this build reads "
                f"{FORMAT_VERSION})"
            )
        body = raw[_HEAD.size:_HEAD.size + hlen]
        if len(body) != hlen:
            raise TraceCacheError("truncated metadata header")
        try:
            header = json.loads(body)
        except json.JSONDecodeError as exc:
            raise TraceCacheError(f"bad metadata JSON: {exc}") from exc
        if header.get("key") != expect_key:
            raise TraceCacheError(
                f"key mismatch: file has {header.get('key')!r}, "
                f"wanted {expect_key!r}"
            )
        count = header.get("ops")
        if not isinstance(count, int) or count < 0:
            raise TraceCacheError(f"bad op count {count!r}")
        start = _HEAD.size + hlen
        if len(raw) - start < 4:
            raise TraceCacheError("truncated op payload")
        stored = raw[start:-4]
        (crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
        if zlib.crc32(stored) != crc:
            raise TraceCacheError("payload CRC mismatch")
        try:
            payload = zlib.decompress(stored)
        except zlib.error as exc:
            raise TraceCacheError(f"payload does not decompress: {exc}") \
                from exc
        need = count * OP_DTYPE.itemsize
        if len(payload) != need:
            raise TraceCacheError(
                f"payload is {len(payload)} bytes, expected {need}"
            )
        batch = BatchTrace.from_payload(payload, count)
        _check_ops(batch)
        return Trace(
            name=header.get("name", "trace"),
            batch=batch,
            footprint_bytes=header.get("footprint_bytes", 0),
            kernels=header.get("kernels", 0),
            meta=header.get("meta", {}) or {},
        )

    def load(self, workload: str, cfg, seed: int,
             ops_scale: float) -> Optional[Trace]:
        """The cached trace, or ``None`` (miss, or invalid file).

        Invalid files warn and are treated as misses — the caller
        regenerates, and the subsequent :meth:`store` overwrites the
        bad file.
        """
        target = self.path(workload, cfg, seed, ops_scale)
        try:
            raw = target.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        try:
            trace = self._parse(
                raw, trace_key(workload, cfg, seed, ops_scale)
            )
        except TraceCacheError as exc:
            warnings.warn(
                f"ignoring invalid trace cache file {target.name}: {exc}",
                RuntimeWarning, stacklevel=2,
            )
            self.misses += 1
            return None
        self.hits += 1
        return trace

    def get_or_generate(self, workload: str, cfg, seed: int,
                        ops_scale: float) -> Trace:
        """Load from disk, or synthesize-and-store on a miss."""
        trace = self.load(workload, cfg, seed, ops_scale)
        if trace is not None:
            return trace
        from repro.trace.workloads import WORKLOADS

        trace = WORKLOADS[workload].generate(cfg, seed=seed,
                                             ops_scale=ops_scale)
        self.store(workload, cfg, seed, ops_scale, trace)
        return trace

"""Persistent binary trace cache: round trips, keys, corruption."""

from __future__ import annotations

import dataclasses
import struct
import zlib

import pytest

from repro.config import ConfigError, SystemConfig
from repro.core.types import MemOp, NodeId, OpType, Scope
from repro.trace.batch import BatchTrace, as_batch
from repro.trace.cache import (
    FORMAT_VERSION,
    MAGIC,
    TraceCache,
    geometry_fingerprint,
    trace_key,
)
from repro.trace.workloads import WORKLOADS

CFG = SystemConfig.paper_scaled(1 / 64)
ARGS = dict(seed=1, ops_scale=0.05)


def _generate(workload="CoMD"):
    return WORKLOADS[workload].generate(CFG, **ARGS)


class TestRoundTrip:
    def test_store_then_load_is_identical(self, tmp_path):
        cache = TraceCache(tmp_path)
        trace = _generate()
        cache.store("CoMD", CFG, 1, 0.05, trace)
        loaded = cache.load("CoMD", CFG, 1, 0.05)
        assert loaded is not None
        assert loaded.ops == trace.ops  # MemOp compares by value
        assert loaded.name == trace.name
        assert loaded.kernels == trace.kernels
        assert loaded.footprint_bytes == trace.footprint_bytes
        assert loaded.meta == trace.meta

    def test_get_or_generate_hits_second_time(self, tmp_path):
        cache = TraceCache(tmp_path)
        first = cache.get_or_generate("CoMD", CFG, 1, 0.05)
        assert (cache.hits, cache.misses) == (0, 1)
        second = cache.get_or_generate("CoMD", CFG, 1, 0.05)
        assert (cache.hits, cache.misses) == (1, 1)
        assert second.ops == first.ops

    def test_cache_file_survives_processes(self, tmp_path):
        # A second TraceCache over the same directory (as a parallel
        # worker would build) sees the first one's files.
        TraceCache(tmp_path).get_or_generate("CoMD", CFG, 1, 0.05)
        other = TraceCache(tmp_path)
        assert other.load("CoMD", CFG, 1, 0.05) is not None


class TestKeys:
    def test_seed_change_misses(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("CoMD", CFG, 1, 0.05, _generate())
        assert cache.load("CoMD", CFG, 2, 0.05) is None

    def test_ops_scale_change_misses(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("CoMD", CFG, 1, 0.05, _generate())
        assert cache.load("CoMD", CFG, 1, 0.1) is None

    def test_geometry_change_misses(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("CoMD", CFG, 1, 0.05, _generate())
        bigger = SystemConfig.paper_scaled(1 / 32)
        assert geometry_fingerprint(bigger) != geometry_fingerprint(CFG)
        assert cache.load("CoMD", bigger, 1, 0.05) is None

    def test_latency_change_does_not_invalidate(self, tmp_path):
        # Latencies shape simulation, not generation: same trace file.
        from repro.config import LatencyConfig

        cache = TraceCache(tmp_path)
        cache.store("CoMD", CFG, 1, 0.05, _generate())
        slow = CFG.replace(latency=LatencyConfig(dram_access=999))
        assert trace_key("CoMD", slow, 1, 0.05) == \
            trace_key("CoMD", CFG, 1, 0.05)
        assert cache.load("CoMD", slow, 1, 0.05) is not None


def _changed(value):
    """A different value of one config field's type (nested configs
    change every numeric field)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 2
    return dataclasses.replace(value, **{
        f.name: _changed(getattr(value, f.name))
        for f in dataclasses.fields(value)
    })


class TestKeyCoversGeneration:
    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(SystemConfig)])
    def test_field_change_keeps_trace_or_key(self, field):
        """Changing any config field either leaves the generated traces
        identical or changes the cache key, so a cached trace never
        stands in for a different one."""
        try:
            other = CFG.replace(**{field: _changed(getattr(CFG, field))})
        except ConfigError:  # doubling breaks a divisibility rule
            value = getattr(CFG, field)
            other = CFG.replace(**{field: value // 2})
        for workload in ("mst", "bfs"):
            if trace_key(workload, other, 1, 0.05) != \
                    trace_key(workload, CFG, 1, 0.05):
                continue
            a = _generate(workload)
            b = WORKLOADS[workload].generate(other, **ARGS)
            assert (b.ops, b.footprint_bytes, b.kernels, b.meta) == \
                (a.ops, a.footprint_bytes, a.kernels, a.meta), workload


class TestCorruption:
    def _stored(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("CoMD", CFG, 1, 0.05, _generate())
        return cache, cache.path("CoMD", CFG, 1, 0.05)

    def test_flipped_payload_byte_warns_and_misses(self, tmp_path):
        cache, path = self._stored(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-40] ^= 0xFF  # inside the op payload, ahead of the CRC
        path.write_bytes(bytes(raw))
        with pytest.warns(RuntimeWarning, match="CRC mismatch"):
            assert cache.load("CoMD", CFG, 1, 0.05) is None

    def test_truncated_file_warns_and_misses(self, tmp_path):
        cache, path = self._stored(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.warns(RuntimeWarning):
            assert cache.load("CoMD", CFG, 1, 0.05) is None

    def test_foreign_version_warns_and_misses(self, tmp_path):
        cache, path = self._stored(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0:10] = struct.pack("<4sHI", MAGIC, FORMAT_VERSION + 1,
                                struct.unpack_from("<4sHI", raw)[2])
        path.write_bytes(bytes(raw))
        with pytest.warns(RuntimeWarning, match="version"):
            assert cache.load("CoMD", CFG, 1, 0.05) is None

    def test_v1_file_warns_and_regenerates(self, tmp_path):
        """A format-1 file (uncompressed payload) is a foreign version:
        it warns, regenerates and is rewritten in the current format."""
        cache, path = self._stored(tmp_path)
        raw = path.read_bytes()
        hlen = struct.unpack_from("<4sHI", raw)[2]
        start, end = _payload_span(raw)
        ops = zlib.decompress(raw[start:end])
        path.write_bytes(struct.pack("<4sHI", MAGIC, 1, hlen)
                         + raw[10:start] + ops
                         + struct.pack("<I", zlib.crc32(ops)))
        with pytest.warns(RuntimeWarning, match="format version 1"):
            trace = cache.get_or_generate("CoMD", CFG, 1, 0.05)
        assert trace.ops == _generate().ops
        assert path.read_bytes() == raw

    def test_op_count_mismatch_warns_and_misses(self, tmp_path):
        """A payload with a valid CRC that decompresses to fewer ops
        than the header names."""
        cache, path = self._stored(tmp_path)
        raw = path.read_bytes()
        start, end = _payload_span(raw)
        short = zlib.compress(zlib.decompress(raw[start:end])[:-18], 1)
        path.write_bytes(raw[:start] + short
                         + struct.pack("<I", zlib.crc32(short)))
        with pytest.warns(RuntimeWarning, match="expected"):
            assert cache.load("CoMD", CFG, 1, 0.05) is None

    def test_bad_magic_warns_and_misses(self, tmp_path):
        cache, path = self._stored(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.warns(RuntimeWarning, match="magic"):
            assert cache.load("CoMD", CFG, 1, 0.05) is None

    def test_corrupt_file_is_regenerated_through(self, tmp_path):
        cache, path = self._stored(tmp_path)
        path.write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning):
            trace = cache.get_or_generate("CoMD", CFG, 1, 0.05)
        assert trace.ops == _generate().ops
        # ...and the overwrite repaired the cache file.
        assert cache.load("CoMD", CFG, 1, 0.05) is not None


def _reference_payload(trace) -> bytes:
    """The op payload packed one op at a time, independently of the
    cache's columnar packing."""
    packer = struct.Struct("<BQBBHBI")
    return b"".join(
        packer.pack(int(op.op), op.address, op.node.gpu, op.node.gpm,
                    op.cta, int(op.scope), op.size)
        for op in trace.ops
    )


def _count_memops(monkeypatch) -> list:
    """A list that grows by one for every MemOp constructed from now on."""
    built = []
    init = MemOp.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MemOp, "__init__", counting_init)
    return built


def _payload_span(raw: bytes) -> tuple:
    """(start, end) of the op payload inside a cache file."""
    hlen = struct.unpack_from("<4sHI", raw)[2]
    return 10 + hlen, len(raw) - 4


class TestColumnsFirst:
    """Cached traces load as columns; MemOps exist only on demand."""

    def test_vectorized_runs_build_no_memop(self, tmp_path, monkeypatch):
        from repro.engine.simulator import simulate
        from repro.engine.vectorized import VECTORIZED_PROTOCOLS

        cache = TraceCache(tmp_path)
        trace = _generate()
        cache.store("CoMD", CFG, 1, 0.05, trace)
        n = len(trace)
        built = _count_memops(monkeypatch)
        loaded = cache.load("CoMD", CFG, 1, 0.05)
        assert len(loaded) == n
        for protocol in sorted(VECTORIZED_PROTOCOLS):
            result = simulate(loaded, CFG, protocol=protocol,
                              engine="vectorized", workload_name="CoMD")
            assert result.engine_used == "vectorized"
            assert result.ops == n
        assert not built
        # A scalar pass builds every op once; later passes reuse them.
        ops = list(loaded)
        assert loaded[0] is next(iter(loaded))
        assert len(built) == n
        assert ops == trace.ops

    def test_generate_store_and_vectorized_build_no_memop(
            self, tmp_path, monkeypatch):
        """Generation writes columns, store packs them as they are, and
        every vectorized protocol reads them: no MemOp, no from_ops."""
        from repro.engine.simulator import compare
        from repro.engine.vectorized import VECTORIZED_PROTOCOLS

        built = _count_memops(monkeypatch)
        from_ops = []
        monkeypatch.setattr(BatchTrace, "from_ops", classmethod(
            lambda cls, ops: from_ops.append(1)))
        trace = _generate()
        TraceCache(tmp_path).store("CoMD", CFG, 1, 0.05, trace)
        results = compare(trace, CFG, sorted(VECTORIZED_PROTOCOLS),
                          engine="vectorized", workload_name="CoMD")
        assert {r.engine_used for r in results.values()} == {"vectorized"}
        assert {r.ops for r in results.values()} == {len(trace)}
        assert not built
        assert not from_ops

    def test_building_ops_releases_columns(self):
        trace = _generate()
        columns = as_batch(trace)
        payload = columns.to_payload()
        ops = trace.ops
        assert len(ops) == len(trace) == len(columns)
        assert trace._batch is None  # one form at a time
        assert trace.ops is ops
        rebuilt = as_batch(trace)
        assert rebuilt is not columns
        assert rebuilt.to_payload() == payload
        assert as_batch(trace) is rebuilt  # memoized again
        assert trace.ops is ops

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_lazy_ops_and_payload_match(self, tmp_path, workload):
        cache = TraceCache(tmp_path)
        trace = WORKLOADS[workload].generate(CFG, seed=1, ops_scale=0.02)
        path = cache.store(workload, CFG, 1, 0.02, trace)
        raw = path.read_bytes()
        start, end = _payload_span(raw)
        assert zlib.decompress(raw[start:end]) == _reference_payload(trace)
        loaded = cache.load(workload, CFG, 1, 0.02)
        assert loaded.ops == trace.ops
        # Enum and NodeId fields compare equal to plain ints and tuples;
        # the built ops must carry the real types.
        assert {(type(op.op), type(op.scope), type(op.node))
                for op in loaded.ops} == {(OpType, Scope, NodeId)}

    def test_store_rejects_unpackable_op(self, tmp_path):
        trace = _generate()
        trace.ops.append(MemOp(OpType.LOAD, 0, NodeId(0, 0), cta=1 << 16))
        with pytest.raises(ValueError, match="'cta'"):
            TraceCache(tmp_path).store("CoMD", CFG, 1, 0.05, trace)

    @pytest.mark.parametrize("offset,patch,message", [
        (0, bytes([9]), r"op 7: invalid kind/scope \(9, "),
        (13, bytes([5]), r"op 7: invalid kind/scope \(\d, 5\)"),
        (14, struct.pack("<I", 0), r"op 7: size 0 is not positive"),
    ])
    def test_invalid_op_warns_and_misses(self, tmp_path, offset, patch,
                                         message):
        """A bad field in op 7 (kind, scope or size), under a valid CRC."""
        cache = TraceCache(tmp_path)
        cache.store("CoMD", CFG, 1, 0.05, _generate())
        path = cache.path("CoMD", CFG, 1, 0.05)
        raw = path.read_bytes()
        start, end = _payload_span(raw)
        ops = bytearray(zlib.decompress(raw[start:end]))
        at = 7 * 18 + offset
        ops[at:at + len(patch)] = patch
        payload = zlib.compress(bytes(ops), 1)
        path.write_bytes(raw[:start] + payload
                         + struct.pack("<I", zlib.crc32(payload)))
        with pytest.warns(RuntimeWarning, match=message):
            assert cache.load("CoMD", CFG, 1, 0.05) is None


class TestContextIntegration:
    def test_context_uses_disk_cache(self, tmp_path):
        from repro.experiments.runner import ExperimentContext

        ctx = ExperimentContext(CFG, trace_cache=tmp_path, **ARGS)
        trace = ctx.trace("CoMD")
        assert ctx.trace_cache.misses == 1
        fresh = ExperimentContext(CFG, trace_cache=tmp_path, **ARGS)
        assert fresh.trace("CoMD").ops == list(trace)
        assert fresh.trace_cache.hits == 1

    def test_cached_trace_simulates_identically(self, tmp_path):
        from repro.experiments.runner import ExperimentContext

        plain = ExperimentContext(CFG, **ARGS)
        cached = ExperimentContext(CFG, trace_cache=tmp_path, **ARGS)
        warmed = ExperimentContext(CFG, trace_cache=tmp_path, **ARGS)
        a = plain.run("CoMD", "hmg")
        b = cached.run("CoMD", "hmg")  # populates the disk cache
        c = warmed.run("CoMD", "hmg")  # deserializes it
        assert a.cycles == b.cycles == c.cycles
        assert a.ops == b.ops == c.ops
        assert a.dram_bytes == b.dram_bytes == c.dram_bytes

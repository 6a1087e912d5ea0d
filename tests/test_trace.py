"""Trace containers, generators, patterns, the workload catalog."""

import random

import pytest

from repro.config import SystemConfig
from repro.core.types import MemOp, NodeId, OpType, Scope
from repro.trace.batch import as_batch
from repro.trace.generator import PATTERNS, GenContext, WorkloadSpec, partition
from repro.trace.stream import Trace, interleave, interleave_order
from repro.trace.workloads import FIGURE_ORDER, WORKLOADS, get_workload
from tests.conftest import ld, st


def _round_robin(streams, chunk):
    """Reference merge: ``chunk`` items from each stream in turn."""
    merged, cursors = [], [0] * len(streams)
    while any(c < len(s) for c, s in zip(cursors, streams)):
        for i, stream in enumerate(streams):
            merged.extend(stream[cursors[i]:cursors[i] + chunk])
            cursors[i] = min(len(stream), cursors[i] + chunk)
    return merged


def _index_lists(lengths):
    """Per-stream lists of indices into the streams' concatenation."""
    out, start = [], 0
    for n in lengths:
        out.append(list(range(start, start + n)))
        start += n
    return out


class TestInterleave:
    def test_preserves_per_stream_order(self):
        s1 = [ld(NodeId(0, 0), k * 128) for k in range(10)]
        s2 = [ld(NodeId(0, 1), k * 128) for k in range(7)]
        merged = interleave([s1, s2], chunk=3)
        assert [op for op in merged if op.node == NodeId(0, 0)] == s1
        assert [op for op in merged if op.node == NodeId(0, 1)] == s2
        assert len(merged) == 17

    def test_round_robin_chunks(self):
        s1 = [ld(NodeId(0, 0), 0)] * 4
        s2 = [ld(NodeId(0, 1), 0)] * 4
        merged = interleave([s1, s2], chunk=2)
        assert [op.node.gpm for op in merged] == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_invalid_chunk(self):
        with pytest.raises(ValueError):
            interleave([[]], chunk=0)

    def test_invalid_chunk_order(self):
        with pytest.raises(ValueError):
            interleave_order([3, 2], chunk=0)

    def test_order_matches_round_robin_reference(self):
        rng = random.Random(0)
        for _ in range(300):
            lengths = [rng.randrange(0, 30)
                       for _ in range(rng.randrange(0, 9))]
            chunk = rng.randrange(1, 8)
            streams = _index_lists(lengths)
            expected = _round_robin(streams, chunk)
            assert interleave(streams, chunk) == expected
            assert interleave_order(lengths, chunk).tolist() == expected

    def test_generated_columns_follow_interleave(self):
        """A kernel's columns come out in interleave() order of the
        per-GPM streams, whether ops arrive one at a time or in spans."""
        rng = random.Random(1)
        cfg = SystemConfig.paper_scaled(1 / 64)
        spec = WorkloadSpec(name="t", abbrev="t", suite="t",
                            footprint_mb=1, pattern="dense_ml", kernels=1,
                            ops_per_gpm_per_kernel=8)
        for _ in range(20):
            ctx = GenContext(cfg, spec)
            region = ctx.alloc_lines("r", 64 * ctx.n_gpms)
            lengths = [rng.randrange(0, 40) for _ in ctx.nodes]
            for flat, (node, n) in enumerate(zip(ctx.nodes, lengths)):
                # Op k of GPM ``flat`` addresses line 64 * flat + k.
                cut = rng.randrange(0, n + 1)
                for k in range(cut):
                    ctx.emit(node, OpType.STORE, region, 64 * flat + k)
                ctx.read_span(node, region, 64 * flat + cut, n - cut)
            batch = as_batch(ctx.finish())
            lines = (batch.address.astype(int) - region.base) // ctx.line
            assert (batch.gpu * cfg.gpms_per_gpu + batch.gpm).tolist() == \
                (lines // 64).tolist()
            got = [sum(lengths[:line // 64]) + line % 64
                   for line in lines.tolist()]
            assert got == interleave(_index_lists(lengths), chunk=4)


class TestTrace:
    def test_counters(self):
        ops = [ld(NodeId(0, 0), 0), st(NodeId(0, 0), 0),
               MemOp(OpType.KERNEL_BOUNDARY, 0, NodeId(0, 0))]
        trace = Trace("t", ops, kernels=1)
        assert trace.loads == 1
        assert trace.stores == 1
        assert trace.synchronizing_ops == 1
        assert len(trace) == 3
        assert trace[0] is ops[0]
        assert "1 kernels" in trace.describe()

    def test_scoped_op_counts(self):
        ops = [ld(NodeId(0, 0), 0, scope=Scope.GPU)] * 2
        trace = Trace("t", ops)
        assert trace.scoped_op_counts()[(OpType.LOAD, Scope.GPU)] == 2


class TestPartition:
    def test_even(self):
        assert partition(16, 4, 0) == (0, 4)
        assert partition(16, 4, 3) == (12, 4)

    def test_uneven(self):
        sizes = [partition(10, 4, i)[1] for i in range(4)]
        assert sum(sizes) == 10
        starts = [partition(10, 4, i)[0] for i in range(4)]
        assert starts == sorted(starts)

    def test_bounds(self):
        with pytest.raises(IndexError):
            partition(10, 4, 4)


class TestCatalog:
    def test_twenty_workloads(self):
        assert len(WORKLOADS) == 20
        assert len(FIGURE_ORDER) == 20

    def test_table_iii_names_present(self):
        names = {spec.name for spec in WORKLOADS.values()}
        for expected in ("cuSolver", "HPC snap", "Lonestar bfs-road-fla",
                         "ML RNN layer4 WGRAD", "Rodinia pathfinder"):
            assert expected in names

    def test_patterns_registered(self):
        for spec in WORKLOADS.values():
            assert spec.pattern in PATTERNS

    def test_gpu_scoped_apps(self):
        """cuSolver, namd2.10 and mst use explicit .gpu-scope sync."""
        for abbrev in ("cuSolver", "namd2.10", "mst"):
            assert WORKLOADS[abbrev].params.get("gpu_synced")

    def test_get_workload(self):
        assert get_workload("snap").suite == "HPC"
        with pytest.raises(ValueError):
            get_workload("doom")

    def test_footprints_match_table_iii(self):
        assert WORKLOADS["bfs"].footprint_mb == 26
        assert WORKLOADS["namd2.10"].footprint_mb == 72
        assert WORKLOADS["RNN_FW"].footprint_mb == 40


class TestGeneration:
    @pytest.fixture(scope="class")
    def cfg(self):
        return SystemConfig.paper_scaled(1 / 64)

    def test_deterministic(self, cfg):
        t1 = WORKLOADS["CoMD"].generate(cfg, seed=3, ops_scale=0.1)
        t2 = WORKLOADS["CoMD"].generate(cfg, seed=3, ops_scale=0.1)
        assert t1.ops == t2.ops

    def test_seed_changes_trace(self, cfg):
        t1 = WORKLOADS["bfs"].generate(cfg, seed=1, ops_scale=0.1)
        t2 = WORKLOADS["bfs"].generate(cfg, seed=2, ops_scale=0.1)
        assert t1.ops != t2.ops

    def test_ops_scale_scales(self, cfg):
        small = WORKLOADS["CoMD"].generate(cfg, seed=1, ops_scale=0.1)
        big = WORKLOADS["CoMD"].generate(cfg, seed=1, ops_scale=0.3)
        assert len(big) > 1.5 * len(small)

    @pytest.mark.parametrize("abbrev", list(FIGURE_ORDER))
    def test_every_workload_generates(self, cfg, abbrev):
        trace = WORKLOADS[abbrev].generate(cfg, seed=1, ops_scale=0.05)
        assert len(trace) > 0
        assert trace.kernels >= WORKLOADS[abbrev].kernels
        # Every GPM participates.
        assert len(trace.nodes()) == cfg.total_gpms

    def test_kernel_boundaries_cover_all_gpms(self, cfg):
        trace = WORKLOADS["snap"].generate(cfg, seed=1, ops_scale=0.05)
        counts = {}
        for op in trace:
            if op.op == OpType.KERNEL_BOUNDARY:
                counts[op.node] = counts.get(op.node, 0) + 1
        assert len(counts) == cfg.total_gpms
        assert len(set(counts.values())) == 1  # same count everywhere

    def test_gpu_synced_traces_contain_scoped_sync(self, cfg):
        trace = WORKLOADS["mst"].generate(cfg, seed=1, ops_scale=0.05)
        scoped = trace.scoped_op_counts()
        assert scoped.get((OpType.RELEASE, Scope.GPU), 0) > 0
        assert scoped.get((OpType.ACQUIRE, Scope.GPU), 0) > 0

    def test_unknown_pattern_rejected(self, cfg):
        spec = WorkloadSpec(name="x", abbrev="x", suite="t",
                            footprint_mb=1, pattern="nope", kernels=1,
                            ops_per_gpm_per_kernel=10)
        with pytest.raises(ValueError, match="unknown pattern"):
            spec.generate(cfg)

    def test_addresses_within_footprint(self, cfg):
        trace = WORKLOADS["lstm"].generate(cfg, seed=1, ops_scale=0.05)
        assert all(op.address < trace.footprint_bytes for op in trace)

    def test_fine_grained_access_sizes(self, cfg):
        trace = WORKLOADS["mst"].generate(cfg, seed=1, ops_scale=0.05)
        sizes = {op.size for op in trace if op.op == OpType.ATOMIC}
        assert sizes and max(sizes) <= 16  # sub-line conflicting updates

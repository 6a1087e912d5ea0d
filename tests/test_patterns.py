"""Pattern-generator internals: layouts, plans, cold streams."""

import math

import pytest

from repro.config import SystemConfig
from repro.core.types import NodeId, OpType, Scope
from repro.memsys.address import Region
from repro.trace.batch import as_batch
from repro.trace.generator import GenContext, WorkloadSpec
from repro.trace.patterns import (
    _ColdStream,
    _SharedReadPlan,
    _SharedRegion,
    _strided_cover,
)


_SPEC = WorkloadSpec(name="t", abbrev="t", suite="t", footprint_mb=1,
                     pattern="dense_ml", kernels=4,
                     ops_per_gpm_per_kernel=400)


@pytest.fixture
def ctx():
    return GenContext(SystemConfig.paper_scaled(1 / 64), _SPEC, seed=1)


def make_plan(ctx, **kw):
    defaults = dict(total_reads=40, reuse=2, hier_frac=0.5)
    defaults.update(kw)
    return _SharedReadPlan(ctx, **defaults)


class TestStridedCover:
    def test_full_coverage_when_budget_suffices(self):
        assert _strided_cover(10, 20) == (1, 10)

    def test_even_spacing(self):
        stride, n = _strided_cover(100, 25)
        assert stride == 4 and n == 25

    def test_empty(self):
        assert _strided_cover(0, 5) == (1, 0)


class TestSharedReadPlan:
    def test_budget_conservation(self, ctx):
        plan = make_plan(ctx, total_reads=40, reuse=4)
        emitted = plan.reuse * plan.unique
        assert abs(emitted - plan.total_reads) <= plan.reuse

    def test_reuse_clamped_for_tiny_plans(self, ctx):
        plan = make_plan(ctx, total_reads=3, reuse=8)
        assert plan.reuse <= 3
        assert plan.reuse * plan.unique <= 6

    def test_hier_priv_split(self, ctx):
        plan = make_plan(ctx, total_reads=40, reuse=2, hier_frac=0.5)
        assert plan.hier_unique + plan.priv_unique == plan.unique
        assert plan.hier_unique == round(plan.unique * 0.5)

    def test_fresh_windows(self, ctx):
        plan = make_plan(ctx, fresh=True, windows=4)
        assert plan.windows == 4
        plan2 = make_plan(ctx, fresh=False, windows=4)
        assert plan2.windows == 1

    def test_zero_reads(self, ctx):
        plan = make_plan(ctx, total_reads=0)
        assert plan.unique == 0


class TestSharedRegion:
    def test_layout_injective(self, ctx):
        plan = make_plan(ctx, total_reads=200, reuse=1, hier_frac=1.0)
        region = _SharedRegion(ctx, "r", plan, 1)
        lines = [region.line_at(k) for k in range(region.lines)]
        assert len(set(lines)) == len(lines)

    def test_layout_spreads_across_pages(self, ctx):
        plan = make_plan(ctx, total_reads=64, reuse=1, hier_frac=1.0)
        region = _SharedRegion(ctx, "r2", plan, 1, min_pages=8)
        lpp = ctx.cfg.lines_per_page
        pages = {region.line_at(k) // lpp for k in range(32)}
        assert len(pages) >= 8

    def test_chunked_layout_keeps_sector_mates_adjacent(self, ctx):
        plan = make_plan(ctx, total_reads=64, reuse=1, hier_frac=1.0)
        region = _SharedRegion(ctx, "r3", plan, 1, chunk=4)
        for base in range(0, 32, 4):
            group = [region.line_at(base + o) for o in range(4)]
            assert group == list(range(group[0], group[0] + 4))
            assert group[0] % 4 == 0  # sector aligned

    def test_gcd_coprime(self, ctx):
        plan = make_plan(ctx)
        region = _SharedRegion(ctx, "r4", plan, 1, chunk=4)
        assert math.gcd(region.stride, region.groups) == 1

    def test_placement_pins_gpu(self, ctx):
        plan = make_plan(ctx)
        region = _SharedRegion(ctx, "r5", plan, 1, placement="gpu:2")
        # The init kernel's first-touch stores come from GPU2 only.
        touchers = {
            ctx.nodes[flat].gpu
            for flat, stream in enumerate(ctx._streams)
            for kind, address in zip(stream.kind, stream.address)
            if kind == OpType.STORE and region.region.contains(address)
        }
        assert touchers == {2}


class TestEmitChecks:
    """emit and the spans make every check a MemOp made, with its
    messages, plus the lower bound on the line offset."""

    def test_offset_past_region_end(self, ctx):
        region = ctx.alloc_lines("e1", 8)
        with pytest.raises(IndexError,
                           match="line offset 8 outside region 'e1'"):
            ctx.emit(ctx.nodes[0], OpType.LOAD, region, 8)

    def test_negative_offset(self, ctx):
        ctx.alloc_lines("before", 8)
        region = ctx.alloc_lines("e2", 8)
        # Offset -1 would address the page below the region.
        with pytest.raises(IndexError,
                           match="line offset -1 outside region 'e2'"):
            ctx.emit(ctx.nodes[0], OpType.LOAD, region, -1)

    def test_negative_address(self, ctx):
        region = Region("below", -4 * ctx.line, 8 * ctx.line)
        with pytest.raises(ValueError, match="address must be non-negative"):
            ctx.emit(ctx.nodes[0], OpType.LOAD, region, 0)

    @pytest.mark.parametrize("size", [0, -4])
    def test_non_positive_size(self, ctx, size):
        region = ctx.alloc_lines("e3", 8)
        with pytest.raises(ValueError, match="size must be positive"):
            ctx.emit(ctx.nodes[0], OpType.LOAD, region, 0, size=size)

    @pytest.mark.parametrize("span", ["read_span", "write_span"])
    def test_spans_raise_at_first_bad_op(self, ctx, span):
        region = ctx.alloc_lines("e4", 8)
        emit_span = getattr(ctx, span)
        node = ctx.nodes[0]
        with pytest.raises(IndexError, match="line offset 8 outside"):
            emit_span(node, region, 2, 10, stride=2)  # 2, 4, 6, 8, ...
        with pytest.raises(IndexError, match="line offset -2 outside"):
            emit_span(node, region, 2, 3, stride=-2)  # 2, 0, -2
        with pytest.raises(ValueError, match="size must be positive"):
            emit_span(node, region, 0, 4, size=0)
        below = Region("below", -4 * ctx.line, 8 * ctx.line)
        with pytest.raises(ValueError, match="address must be non-negative"):
            emit_span(node, below, 0, 8)

    @pytest.mark.parametrize("start,count,stride", [
        (0, 5, 1), (3, 6, 2), (30, 4, -7), (9, 3, 0), (0, 0, 1), (5, -2, 1),
    ])
    def test_span_equals_loop_of_emits(self, start, count, stride):
        def build(use_span):
            ctx = GenContext(SystemConfig.paper_scaled(1 / 64), _SPEC)
            region = ctx.alloc_lines("r", 32)
            node = ctx.nodes[5]
            if use_span:
                ctx.read_span(node, region, start, count, stride=stride,
                              scope=Scope.GPU, size=16)
                ctx.write_span(node, region, start, count, stride=stride)
            else:
                for op, kw in ((OpType.LOAD, dict(scope=Scope.GPU, size=16)),
                               (OpType.STORE, {})):
                    for k in range(count):
                        ctx.emit(node, op, region, start + k * stride, **kw)
            return as_batch(ctx.finish()).to_payload()

        assert build(True) == build(False)


class TestColdStream:
    def _spec(self, frac):
        return WorkloadSpec(name="c", abbrev="c", suite="t",
                            footprint_mb=1, pattern="dense_ml", kernels=3,
                            ops_per_gpm_per_kernel=400,
                            params={"cold_frac": frac})

    def test_disabled_when_zero(self, ctx):
        cold = _ColdStream(ctx, self._spec(0.0))
        assert cold.region is None
        assert cold.total_reads == 0
        cold.emit(ctx, NodeId(0, 0), 0, 0)  # no-op, no crash

    def test_streams_are_disjoint_across_gpms_and_kernels(self, ctx):
        cold = _ColdStream(ctx, self._spec(0.1))
        seen = set()
        for flat in range(4):
            for kernel in range(3):
                addresses = ctx._streams[flat].address
                before = len(addresses)
                cold.emit(ctx, ctx.nodes[flat], flat, kernel)
                addrs = set(addresses[before:])
                assert addrs
                assert not (addrs & seen)  # once-through, never reread
                seen |= addrs

    def test_respects_budget(self, ctx):
        cold = _ColdStream(ctx, self._spec(0.1))
        before = sum(len(s.address) for s in ctx._streams)
        cold.emit(ctx, ctx.nodes[0], 0, 0)
        emitted = sum(len(s.address) for s in ctx._streams) - before
        assert 0 < emitted <= cold.reads_per_kernel


class TestSyncPages:
    def test_gpu_flags_homed_locally(self):
        """Each GPU's sync flag lives on its own page, so .gpu-scoped
        sync never crosses the inter-GPU network (the padding real
        runtimes apply)."""
        from repro.core.registry import make_protocol
        from repro.trace.workloads import WORKLOADS

        cfg = SystemConfig.paper_scaled(1 / 64)
        trace = WORKLOADS["mst"].generate(cfg, seed=1, ops_scale=0.05)
        proto = make_protocol("hmg", cfg)
        for op in trace:
            proto.process(op)
        releases = [op for op in trace
                    if op.op == OpType.RELEASE and op.scope.name == "GPU"]
        assert releases
        for op in releases[:32]:
            line = proto.amap.line_of(op.address)
            owner = proto.page_table.policy.lookup(
                proto.amap.page_of_line(line)
            )
            assert owner.gpu == op.node.gpu

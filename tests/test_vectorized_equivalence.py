"""Differential tests: vectorized batch engine vs scalar reference.

The vectorized engine's contract (DESIGN.md §15) is enforced by
:mod:`repro.engine.equivalence`: static quantities match the scalar
:class:`~repro.engine.throughput.ThroughputEngine` exactly, stateful
ones stay inside documented per-field bands.  These tests run the gate
over the full fig8 grid (every registry protocol x CoMD/mst), repeat
it under fault plans — including the ``lossy`` plan whose analytic
degradation counters both engines must agree on — and fuzz it with a
seeded random trace that none of the band calibration ever saw.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.types import MemOp, NodeId, OpType, Scope
from repro.engine.equivalence import (
    GRID_OPS_SCALE,
    GRID_PROTOCOLS,
    GRID_SCALE,
    GRID_SEED,
    GRID_WORKLOADS,
    check_cell,
    compare_results,
    result_fields,
)
from repro.engine.simulator import simulate
from repro.engine.vectorized import VECTORIZED_PROTOCOLS
from repro.faults import FAULT_PLANS
from repro.trace.batch import BatchTrace, as_batch

CELLS = [(w, p) for w in GRID_WORKLOADS for p in GRID_PROTOCOLS]


@pytest.fixture(scope="module")
def grid_cfg():
    return SystemConfig.paper_scaled(GRID_SCALE)


@pytest.fixture(scope="module")
def grid_traces(grid_cfg):
    from repro.trace.workloads import WORKLOADS

    return {
        w: WORKLOADS[w].generate(grid_cfg, seed=GRID_SEED,
                                 ops_scale=GRID_OPS_SCALE)
        for w in GRID_WORKLOADS
    }


class TestGridEquivalence:
    """Every fig8 cell stays inside the documented bands."""

    @pytest.mark.parametrize("workload,protocol", CELLS)
    def test_cell(self, grid_cfg, grid_traces, workload, protocol):
        scalar, vectorized, mismatches = check_cell(
            grid_cfg, grid_traces[workload], protocol,
            workload_name=workload,
        )
        assert not mismatches, "\n".join(str(m) for m in mismatches)
        # The grid's headline claims, asserted directly as well so a
        # future band widening cannot silently absorb them.
        assert vectorized.ops == scalar.ops
        assert vectorized.stats.stores == scalar.stats.stores
        assert abs(vectorized.cycles - scalar.cycles) <= 0.05 * scalar.cycles

    def test_registry_coverage(self):
        """Every registry protocol has a vectorized model (the fallback
        path in simulate() is for future protocols, not current ones)."""
        from repro.core.registry import PROTOCOLS

        assert set(PROTOCOLS) <= set(VECTORIZED_PROTOCOLS)


class TestFaultPlanEquivalence:
    """Fault expansion and degradation accounting match across engines."""

    @pytest.mark.parametrize("plan_name", ["degraded", "flaky", "lossy"])
    @pytest.mark.parametrize("protocol", ["hmg", "gpuvi"])
    def test_plan(self, grid_cfg, grid_traces, plan_name, protocol):
        plan = FAULT_PLANS[plan_name](0)
        scalar, vectorized, mismatches = check_cell(
            grid_cfg, grid_traces["CoMD"], protocol,
            workload_name="CoMD", fault_plan=plan,
        )
        assert not mismatches, "\n".join(str(m) for m in mismatches)

    def test_lossy_degradation_counters(self, grid_cfg, grid_traces):
        """The 2% lossy plan must surface nonzero analytic recovery
        counters from the vectorized engine, matching scalar's within
        the LOAD_REQ band they inherit."""
        plan = FAULT_PLANS["lossy"](0)
        scalar, vectorized, _ = check_cell(
            grid_cfg, grid_traces["CoMD"], "hmg",
            workload_name="CoMD", fault_plan=plan,
        )
        assert vectorized.degradation is not None
        assert vectorized.degradation.retries > 0
        assert vectorized.degradation.dropped_messages > 0
        for key, sval in scalar.degradation.as_dict().items():
            vval = vectorized.degradation.as_dict()[key]
            assert abs(vval - sval) <= max(0.05 * sval, 4), key

    def test_noop_plan_has_no_degradation(self, grid_cfg, grid_traces):
        result = simulate(grid_traces["CoMD"], grid_cfg, protocol="hmg",
                          engine="vectorized",
                          fault_plan=FAULT_PLANS["none"](0))
        assert result.degradation is None


def _fuzz_trace(cfg, seed: int, n_ops: int = 6000):
    """A seeded random op soup no band calibration ever saw: skewed
    hot-set addressing, all op kinds, all scopes, occasional kernel
    boundaries."""
    rng = np.random.RandomState(seed)
    ops = []
    hot = rng.randint(0, 1 << 20, size=64) * cfg.line_size
    for i in range(n_ops):
        node = NodeId(int(rng.randint(cfg.num_gpus)),
                      int(rng.randint(cfg.gpms_per_gpu)))
        roll = rng.rand()
        if roll < 0.005:
            ops.append(MemOp(OpType.KERNEL_BOUNDARY, 0, node))
            continue
        if rng.rand() < 0.7:
            address = int(hot[rng.randint(hot.size)])
        else:
            address = int(rng.randint(0, 1 << 26)) * 4
        scope = Scope(int(rng.choice([0, 0, 0, 1, 2])))
        if roll < 0.55:
            kind = OpType.LOAD
        elif roll < 0.80:
            kind = OpType.STORE
        elif roll < 0.88:
            kind = OpType.ATOMIC
        elif roll < 0.94:
            kind = OpType.ACQUIRE
        else:
            kind = OpType.RELEASE
        size = int(rng.choice([4, 8, 16, 32, 64]))
        ops.append(MemOp(kind, address, node, cta=int(rng.randint(256)),
                         scope=scope, size=size))
    return ops


class TestFuzzEquivalence:
    """Seeded random traces stay inside the bands too."""

    @pytest.mark.parametrize("seed", [7, 23])
    @pytest.mark.parametrize("protocol", ["hmg", "nhcc", "sw"])
    def test_fuzz_cell(self, grid_cfg, seed, protocol):
        trace = _fuzz_trace(grid_cfg, seed)
        # Uniform-random sharing across all 16 GPMs stresses the epoch
        # approximation far beyond any real workload; cycles gets a
        # widened band here (the fig8 grid holds the tight 5% one).
        scalar, vectorized, mismatches = check_cell(
            grid_cfg, trace, protocol, workload_name=f"fuzz{seed}",
            overrides={"cycles": (0.10, 0)},
        )
        assert not mismatches, "\n".join(str(m) for m in mismatches)

    def test_result_fields_cover_bounds(self, grid_cfg):
        """Every bounded field is actually produced by result_fields —
        a renamed counter must fail here, not silently stop gating."""
        from repro.engine.equivalence import BOUNDS

        trace = _fuzz_trace(grid_cfg, 3, n_ops=500)
        _, vectorized, _ = check_cell(grid_cfg, trace, "hmg")
        fields = result_fields(vectorized)
        missing = [name for name in BOUNDS
                   if name not in fields and not name.startswith("deg.")]
        assert not missing


class TestBatchDecode:
    """Columnar decode paths agree with the MemOp fallback."""

    def test_payload_matches_from_ops(self, grid_cfg):
        ops = _fuzz_trace(grid_cfg, 11, n_ops=400)
        # An independent reference packing of the cache's op format.
        import struct

        packer = struct.Struct("<BQBBHBI")
        payload = b"".join(
            packer.pack(int(op.op), op.address, op.node.gpu, op.node.gpm,
                        op.cta, int(op.scope), op.size)
            for op in ops
        )
        a = BatchTrace.from_payload(payload, len(ops))
        b = BatchTrace.from_ops(ops)
        for col in ("kind", "address", "gpu", "gpm", "cta", "scope",
                    "size"):
            np.testing.assert_array_equal(getattr(a, col),
                                          getattr(b, col))
        assert b.to_payload() == payload
        assert a.to_ops() == ops

    def test_cache_load_attaches_batch(self, grid_cfg, tmp_path):
        from repro.trace.cache import TraceCache
        from repro.trace.stream import Trace

        ops = _fuzz_trace(grid_cfg, 5, n_ops=200)
        trace = Trace(name="t", ops=ops)
        cache = TraceCache(tmp_path)
        cache.store("t", grid_cfg, 1, 1.0, trace)
        loaded = cache.load("t", grid_cfg, 1, 1.0)
        batch = getattr(loaded, "_batch", None)
        assert batch is not None and len(batch) == len(ops)
        # as_batch must reuse the attached columns, not rebuild them.
        assert as_batch(loaded) is batch


class TestSimulateDispatch:
    """simulate(engine='vectorized') routing and fallbacks."""

    def test_engine_listed(self):
        from repro.engine.simulator import ENGINES

        assert "vectorized" in ENGINES

    def test_dispatches_to_batch_engine(self, grid_cfg, grid_traces):
        result = simulate(grid_traces["CoMD"], grid_cfg, protocol="hmg",
                          engine="vectorized", workload_name="CoMD")
        scalar = simulate(grid_traces["CoMD"], grid_cfg, protocol="hmg",
                          workload_name="CoMD")
        assert result.ops == scalar.ops
        assert not compare_results(scalar, result)

    def test_sanitizer_falls_back_to_scalar(self, grid_cfg):
        """A sanitized run must produce scalar-exact counters: the
        batch path has no per-op hook, so simulate() silently routes
        to the reference engine."""
        trace = _fuzz_trace(grid_cfg, 2, n_ops=300)
        sanitized = simulate(trace, grid_cfg, protocol="hmg",
                             engine="vectorized", sanitize=True)
        scalar = simulate(trace, grid_cfg, protocol="hmg")
        assert sanitized.stats.msg_counts == scalar.stats.msg_counts
        assert sanitized.l1_stats.hits == scalar.l1_stats.hits

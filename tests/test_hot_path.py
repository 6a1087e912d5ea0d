"""The scalar loop's trace-invariant fast paths are exact.

The throughput engine charges NHCC/HMG release fences from one message
plan per (node, scope), adds a trace's op tallies once instead of op by
op, and drops remotely-homed L2 lines without a Python predicate per
line.  The golden digests (``test_scalar_golden``) pin the results;
these tests pin each fast path against its reference: the
message-by-message fence fan-out, the op-by-op counting of
``CoherenceProtocol.process``, and ``invalidate_where``.  They also
check that telemetry, the sanitizer, the trace's container and the
detailed engine see no difference, and that the perf gate
(``tools/check_perf.py``) runs.

``tests/data/detailed_digests.json`` holds detailed-engine digests
recorded before the fast paths landed.  Regenerate it only for an
intended change to that engine's results::

    PYTHONPATH=src python -m tests.test_hot_path --write
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.core.protocol import AccessOutcome, RecordingSink, TrafficSink
from repro.core.registry import make_protocol
from repro.core.software import HierarchicalSWProtocol
from repro.core.types import MemOp, MsgType, NodeId, OpType, Scope
from repro.engine.simulator import simulate
from repro.engine.throughput import ThroughputEngine, ThroughputSink
from repro.faults import FAULT_PLANS
from repro.memsys.cache import SetAssociativeCache
from repro.telemetry.session import TelemetrySession
from repro.telemetry.tracer import ChromeTracer
from repro.trace.stream import Trace
from repro.trace.workloads import WORKLOADS
from tests.test_vectorized_golden import digest

DETAILED = Path(__file__).with_name("data") / "detailed_digests.json"

PROTOCOLS = ("noremote", "sw", "hsw", "nhcc", "gpuvi", "hmg", "ideal")
FENCING = ("nhcc", "gpuvi", "hmg")


@pytest.fixture(scope="module")
def small():
    """mst, with every other acquire and release at .sys."""
    cfg = SystemConfig.paper_scaled(1 / 64)
    return cfg, Trace("mst-sys", ops=with_sys_scopes("mst", cfg))


# ----------------------------------------------------------------------
# Fence plans
# ----------------------------------------------------------------------

def reference_fence(cfg, protocol, node, scope):
    """The per-message fan-out, ``(mtype, src, dst)`` in send order,
    and the farthest round trip: NHCC fences every other GPM (Section
    IV); HMG fences its own GPU and, at .sys, each peer GPU's home,
    which fences its GPMs before acking (Section V-B)."""
    fence, ack = MsgType.RELEASE_FENCE, MsgType.RELEASE_ACK
    lat = cfg.latency

    def rtt(a, b):
        if a == b:
            return 0
        hop = lat.inter_gpm_hop if a.gpu == b.gpu else lat.inter_gpu_hop
        return 2 * hop

    sends = []
    if protocol in ("nhcc", "gpuvi"):
        others = [NodeId.from_flat(i, cfg.gpms_per_gpu)
                  for i in range(cfg.total_gpms)]
        for other in others:
            if other != node:
                sends += [(fence, node, other), (ack, other, node)]
        return sends, max(rtt(node, o) for o in others)
    farthest = 0
    for gpm in range(cfg.gpms_per_gpu):
        other = NodeId(node.gpu, gpm)
        if other != node:
            sends += [(fence, node, other), (ack, other, node)]
            farthest = max(farthest, rtt(node, other))
    if scope == Scope.SYS:
        for gpu in range(cfg.num_gpus):
            if gpu == node.gpu:
                continue
            peer = NodeId(gpu, node.gpm)
            sends.append((fence, node, peer))
            farthest = max(farthest, rtt(node, peer))
            for gpm in range(cfg.gpms_per_gpu):
                inner = NodeId(gpu, gpm)
                if inner != peer:
                    sends += [(fence, peer, inner), (ack, inner, peer)]
            sends.append((ack, peer, node))
    return sends, farthest


def as_messages(cfg, sends):
    sizes = cfg.message_sizes
    size = {MsgType.RELEASE_FENCE: sizes.release_fence,
            MsgType.RELEASE_ACK: sizes.acknowledgment}
    return [(m, s, d, 0, size[m]) for m, s, d in sends]


def recorded(sink):
    return [(m.mtype, m.src, m.dst, m.address, m.size_bytes)
            for m in sink.messages]


FENCE_OPS = [(OpType.RELEASE, Scope.GPU), (OpType.RELEASE, Scope.SYS),
             (OpType.KERNEL_BOUNDARY, Scope.CTA)]


class TestFencePlans:
    @pytest.mark.parametrize("protocol", FENCING)
    @pytest.mark.parametrize("kind,scope", FENCE_OPS)
    def test_recording_sink_sees_the_per_message_fan_out(
            self, cfg, protocol, kind, scope):
        for node in (NodeId(0, 0), NodeId(2, 3)):
            sink = RecordingSink()
            proto = make_protocol(protocol, cfg, sink=sink)
            fence_scope = Scope.SYS if kind is OpType.KERNEL_BOUNDARY \
                else scope
            sends, farthest = reference_fence(cfg, protocol, node,
                                              fence_scope)
            expected = as_messages(cfg, sends)
            # The first fence builds the plan, the later ones replay it.
            for round_ in range(3):
                sink.clear()
                op = MemOp(kind, 0x1000 * (round_ + 1), node, scope=scope)
                outcome = proto.process(op)
                got = recorded(sink)
                assert got[len(got) - len(expected):] == expected
                fences = [g for g in got if g[0] in (
                    MsgType.RELEASE_FENCE, MsgType.RELEASE_ACK)]
                assert fences == expected
                if kind is OpType.KERNEL_BOUNDARY:
                    assert got == expected
                    assert outcome.latency == (
                        farthest + cfg.timing.bulk_invalidate_cycles)
            stats = proto.stats
            for mtype, size in ((MsgType.RELEASE_FENCE,
                                 cfg.message_sizes.release_fence),
                                (MsgType.RELEASE_ACK,
                                 cfg.message_sizes.acknowledgment)):
                count = 3 * sum(1 for m, _, _ in sends if m is mtype)
                assert stats.msg_counts.get(mtype, 0) == count
                assert stats.msg_bytes.get(mtype, 0) == count * size

    @pytest.mark.parametrize("protocol", FENCING)
    def test_throughput_sink_charges_the_message_sums(self, cfg, protocol):
        proto = make_protocol(protocol, cfg,
                              sink=ThroughputSink(cfg.num_gpus))
        for gpu in range(cfg.num_gpus):
            for scope in (Scope.GPU, Scope.SYS):
                proto._release_fence(NodeId(gpu, 1), scope)
        assert len(proto._fence_plans) == 2 * cfg.num_gpus
        for plan in proto._fence_plans.values():
            fast = ThroughputSink(cfg.num_gpus)
            slow = ThroughputSink(cfg.num_gpus)
            for _ in range(2):  # the second charge reads the memo
                fast.charge(plan)
                TrafficSink.charge(slow, plan)
            assert fast.xbar_bytes == slow.xbar_bytes
            assert fast.link_out_bytes == slow.link_out_bytes
            assert fast.link_in_bytes == slow.link_in_bytes
            assert any(slow.xbar_bytes)


# ----------------------------------------------------------------------
# Op counts once per trace
# ----------------------------------------------------------------------

class TestOpCountsOncePerTrace:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_engine_counts_match_process(self, small, protocol):
        cfg, trace = small
        by_op = make_protocol(protocol, cfg,
                              sink=ThroughputSink(cfg.num_gpus))
        for op in trace:
            by_op.process(op)
        engine = make_protocol(protocol, cfg,
                               sink=ThroughputSink(cfg.num_gpus))
        result = ThroughputEngine(cfg).run(engine, trace)
        assert result.ops == len(trace)
        assert dataclasses.asdict(engine.stats) == \
            dataclasses.asdict(by_op.stats)
        # Same insertion order too: a stored result pickles its dicts.
        assert list(engine.stats.op_counts) == list(by_op.stats.op_counts)
        assert list(engine.stats.msg_counts) == \
            list(by_op.stats.msg_counts)
        assert engine.ops_per_gpm == by_op.ops_per_gpm
        assert engine.l2_bytes_per_gpm == by_op.l2_bytes_per_gpm
        assert engine.bulk_invs_per_gpm == by_op.bulk_invs_per_gpm
        assert engine.sink.xbar_bytes == by_op.sink.xbar_bytes

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_trace_list_and_iterator_agree(self, small, protocol):
        cfg, trace = small
        ops = list(trace)
        want = digest(simulate(trace, cfg, protocol=protocol))
        assert digest(simulate(list(ops), cfg, protocol=protocol)) == want
        assert digest(simulate(iter(ops), cfg, protocol=protocol)) == want
        assert digest(simulate((op for op in ops), cfg,
                               protocol=protocol)) == want

    def test_summary_is_taken_once_per_trace(self, small):
        cfg, trace = small
        summary = trace.op_summary()
        simulate(trace, cfg, protocol="hmg")
        assert trace.op_summary() is summary
        assert summary.total == len(trace)
        assert list(summary.kinds) == list(dict.fromkeys(
            op.op for op in trace))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_sanitized_run_matches(self, small, protocol):
        cfg, trace = small
        assert digest(simulate(trace, cfg, protocol=protocol,
                               sanitize=True)) == \
            digest(simulate(trace, cfg, protocol=protocol))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_noop_telemetry_matches(self, small, protocol):
        cfg, trace = small
        plain = simulate(trace, cfg, protocol=protocol)
        quiet = TelemetrySession()
        loud = TelemetrySession(tracer=ChromeTracer(
            cfg.gpms_per_gpu, cfg.num_gpus, time_label="ops"))
        for session in (quiet, loud):
            result = simulate(trace, cfg, protocol=protocol,
                              telemetry=session)
            assert digest(result) == digest(plain)
        # The quiet session tallies a fence plan by count, the tracing
        # one message by message: the same counts, keys in one order.
        assert list(quiet.msg_scope_counts.items()) == \
            list(loud.msg_scope_counts.items())
        assert sum(quiet.msg_scope_counts.values()) == \
            sum(plain.stats.msg_counts.values())
        # ... and the tracer still records every message.
        assert sum(1 for e in loud.tracer.events if e["cat"] == "msg") \
            == sum(plain.stats.msg_counts.values())


# ----------------------------------------------------------------------
# Bulk invalidations
# ----------------------------------------------------------------------

class TestBulkInvalidation:
    def test_invalidate_remote_matches_the_predicate(self):
        rng = random.Random(5)
        caches = [SetAssociativeCache(64 * 128, 128, 4) for _ in range(2)]
        for _ in range(200):
            line, version = rng.randrange(512), rng.randrange(9)
            remote = rng.random() < 0.5
            for cache in caches:
                cache.fill(line, version, remote=remote)
        fast, slow = caches
        dropped = fast.invalidate_remote()
        want = slow.invalidate_where(lambda entry: entry.remote)
        assert [(e.line, e.version) for e in dropped] == \
            [(e.line, e.version) for e in want]
        assert dropped and all(e.remote for e in dropped)
        assert sorted(e.line for e in fast.lines()) == \
            sorted(e.line for e in slow.lines())
        assert fast.stats == slow.stats

    @pytest.mark.parametrize("workload", ["mst", "cuSolver"])
    def test_hsw_sweeps_match_the_per_line_predicates(self, workload):
        cfg = SystemConfig.paper_scaled(1 / 64)
        ops = with_sys_scopes(workload, cfg)
        proto = ReferenceHSW(cfg, sink=ThroughputSink(cfg.num_gpus))
        want = ThroughputEngine(cfg).run(proto, ops)
        want.engine_used = "throughput"  # as simulate() records
        assert want.stats.lines_inv_by_acquire > 0
        got = simulate(ops, cfg, protocol="hsw")
        assert digest(got) == digest(want)

    @pytest.mark.parametrize("workload", ["mst", "cuSolver"])
    def test_hsw_marks_remote_exactly_the_lines_homed_elsewhere(
            self, workload):
        # What lets a .sys boundary or the issuer's .sys sweep drop
        # remote lines without a predicate.
        cfg = SystemConfig.paper_scaled(1 / 64)
        proto = make_protocol("hsw", cfg)
        checked = 0
        for i, op in enumerate(with_sys_scopes(workload, cfg)):
            proto.process(op)
            if i % 97:
                continue
            for flat, l2 in enumerate(proto.l2):
                node = proto.node(flat)
                for entry in l2.lines():
                    page = proto.amap.page_of_line(entry.line)
                    owner = proto.page_table.owner_of_page(page, node)
                    assert entry.remote == (owner != node)
                    checked += 1
        assert checked > 1000


def with_sys_scopes(workload, cfg):
    """The workload's ops with every other acquire and release widened
    to .sys (the workloads themselves synchronize at .gpu)."""
    ops = []
    widen = False
    for op in WORKLOADS[workload].generate(cfg, seed=2, ops_scale=0.02):
        if op.op in (OpType.ACQUIRE, OpType.RELEASE):
            if widen:
                op = op.with_scope(Scope.SYS)
            widen = not widen
        ops.append(op)
    assert any(op.scope is Scope.SYS and op.op is OpType.ACQUIRE
               for op in ops)
    return ops


class ReferenceHSW(HierarchicalSWProtocol):
    """hsw with every bulk sweep testing each resident line, recomputing
    its owner and GPU home from the page table (no memo, no reliance on
    the ``remote`` flag)."""

    def _owner(self, line, node):
        return self.page_table.owner_of_page(self.amap.page_of_line(line),
                                             node)

    def _gpu_home(self, line, node):
        return self.amap.gpu_home(line, node.gpu, self._owner(line, node))

    def _sweep(self, node, stale):
        dropped = self.l2[self.flat(node)].invalidate_where(stale)
        self.bulk_invs_per_gpm[self.flat(node)] += 1
        self.stats.lines_inv_by_acquire += len(dropped)

    def _boundary_stale(self, node):
        def stale(entry):
            owner = self._owner(entry.line, node)
            if owner.gpu != node.gpu:
                return True
            return self.amap.gpu_home(entry.line, node.gpu, owner) != node

        return stale

    def _acquire(self, op):
        if op.scope == Scope.CTA:
            out = self._load(op)
            out.exposed = True
            return out
        slices = self.l1[self.flat(op.node)]
        self.stats.lines_inv_by_acquire += self._invalidate_l1s(
            op.node, op.cta % len(slices))
        if op.scope == Scope.GPU:
            self._sweep(op.node, lambda entry: self._gpu_home(
                entry.line, op.node) != op.node)
        else:
            gpu = op.node.gpu
            for other_gpm in range(self.cfg.gpms_per_gpu):
                target = NodeId(gpu, other_gpm)
                if target == op.node:
                    self._sweep(target, self._boundary_stale(target))
                else:
                    self._sweep(target, lambda entry, target=target:
                                self._owner(entry.line, target).gpu != gpu)
        out = self._load(op)
        out.latency += self.cfg.timing.bulk_invalidate_cycles
        out.exposed = True
        return out

    def _kernel_boundary(self, op):
        stall = self._release_stall(op.with_scope(Scope.SYS))
        self.stats.lines_inv_by_acquire += self._invalidate_l1s(op.node)
        self._sweep(op.node, self._boundary_stale(op.node))
        latency = stall + self.cfg.timing.bulk_invalidate_cycles
        return AccessOutcome(0, latency, True)


# ----------------------------------------------------------------------
# The detailed engine and the perf gate
# ----------------------------------------------------------------------

def detailed_cells() -> dict:
    cfg = SystemConfig.paper_scaled(1 / 64)
    out = {}
    for workload in ("CoMD", "mst"):
        trace = WORKLOADS[workload].generate(cfg, seed=2, ops_scale=0.02)
        runs = [(p, None) for p in PROTOCOLS]
        runs += [(p, "lossy") for p in ("nhcc", "hmg")]
        for protocol, plan in runs:
            result = simulate(trace, cfg, protocol=protocol,
                              engine="detailed", workload_name=workload,
                              fault_plan=FAULT_PLANS[plan](0)
                              if plan else None)
            out[f"{workload}/{protocol}/{plan or 'none'}"] = digest(result)
    return out


def test_detailed_engine_results_unchanged():
    assert detailed_cells() == json.loads(DETAILED.read_text())


def load_check_perf():
    path = Path(__file__).resolve().parent.parent / "tools" \
        / "check_perf.py"
    spec = importlib.util.spec_from_file_location("check_perf", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kwargs", [{"engine": "scalar"},
                                    {"engine": "vectorized"},
                                    {"null_telemetry": True}],
                         ids=["scalar", "vectorized", "null-telemetry"])
def test_perf_gate_measures_a_pass(monkeypatch, kwargs):
    check_perf = load_check_perf()
    monkeypatch.setattr(check_perf, "OPS_SCALE", 0.02)
    assert check_perf.measure_once(**kwargs) > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DETAILED.parent.mkdir(exist_ok=True)
    table = detailed_cells()
    DETAILED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DETAILED}")

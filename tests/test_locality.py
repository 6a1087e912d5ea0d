"""Fig 3's locality analysis on trace columns, against the two-pass
``MemOp`` walk it replaced (kept here as the oracle)."""

from __future__ import annotations

import pytest

from repro.analysis.locality import analyze_locality
from repro.config import SystemConfig
from repro.core.types import NodeId, OpType
from repro.experiments import cli, figures
from repro.experiments.runner import ExperimentContext
from repro.memsys.address import AddressMap
from repro.memsys.page_table import PageTable, make_placement
from repro.trace.batch import BatchTrace
from repro.trace.stream import replayable
from repro.trace.workloads import FIGURE_ORDER, WORKLOADS
from tests.conftest import (N00, N01, N02, N10, N11, N20, acq, atom,
                            boundary, ld, rel, st)

CFG = SystemConfig.paper_scaled(1 / 64)
PLACEMENTS = ("first_touch", "interleave", "single:1")


def two_pass(trace, cfg, placement="first_touch"):
    """The reference analysis: replay placement and per-(GPU, line)
    accessor masks op by op, then classify every load op by op.
    Returns ``(inter_gpu_loads, shareable_loads, total_loads)``."""
    amap = AddressMap.from_config(cfg)
    table = PageTable(cfg.page_size,
                      make_placement(placement, cfg.num_gpus,
                                     cfg.gpms_per_gpu))
    ops = replayable(trace)
    accessors: dict = {}
    owners: dict = {}
    for op in ops:
        if op.op == OpType.KERNEL_BOUNDARY:
            continue
        line = amap.line_of(op.address)
        if line not in owners:
            owners[line] = table.owner_of_page(
                amap.page_of_line(line), op.node
            )
        key = (op.node.gpu, line)
        accessors[key] = accessors.get(key, 0) | (1 << op.node.gpm)
    inter = shareable = total_loads = 0
    for op in ops:
        if op.op not in (OpType.LOAD, OpType.ACQUIRE):
            continue
        total_loads += 1
        line = amap.line_of(op.address)
        if owners[line].gpu == op.node.gpu:
            continue
        inter += 1
        if accessors[(op.node.gpu, line)] & ~(1 << op.node.gpm):
            shareable += 1
    return inter, shareable, total_loads


def counts(report):
    return (report.inter_gpu_loads, report.shareable_loads,
            report.total_loads)


def _generate(workload):
    return WORKLOADS[workload].generate(CFG, seed=1, ops_scale=0.05)


@pytest.mark.parametrize("workload", FIGURE_ORDER)
def test_columns_match_two_pass_oracle(workload):
    trace = _generate(workload)
    ops = list(_generate(workload))
    for placement in PLACEMENTS:
        report = analyze_locality(trace, CFG, workload, placement)
        assert report.workload == workload
        assert counts(report) == two_pass(ops, CFG, placement), placement
    # A generated trace is analysed on its columns: no op list is built.
    assert trace._ops is None


# Remote loads shared by two GPMs of one GPU (some through acquires)
# and private ones, atomics, stores and releases that place pages and
# mark accessors, and kernel boundaries that do neither.
HAND_BUILT = [
    boundary(N00),
    st(N00, 0), ld(N10, 0), acq(N11, 64), ld(N20, 4096),
    atom(N02, 8192), ld(N10, 8192), ld(N11, 8200), rel(N01, 12288),
    boundary(N10),
    ld(N20, 12288), ld(N00, 128), st(N11, 16384), ld(N10, 16384),
    ld(NodeId(3, 3), 0), ld(NodeId(3, 2), 200000), ld(N01, 128),
    acq(NodeId(3, 3), 200000),
]


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_hand_built_list_and_one_shot_iterator(placement):
    expected = two_pass(HAND_BUILT, CFG, placement)
    assert expected[0] and expected[1] and expected[0] > expected[1]
    assert counts(analyze_locality(HAND_BUILT, CFG,
                                   placement=placement)) == expected
    assert counts(analyze_locality(iter(HAND_BUILT), CFG,
                                   placement=placement)) == expected
    assert counts(analyze_locality((op for op in HAND_BUILT), CFG,
                                   placement=placement)) == expected


def test_empty_and_load_free_traces():
    assert counts(analyze_locality([], CFG)) == (0, 0, 0)
    assert counts(analyze_locality([boundary(N00), st(N10, 0)],
                                   CFG)) == (0, 0, 0)


def test_warm_fig3_rerun_builds_no_op_lists(tmp_path, monkeypatch,
                                            capsys):
    """A fig3 rerun whose traces load from the trace cache reads their
    columns and never builds a ``MemOp`` list."""
    calls = []
    to_ops = BatchTrace.to_ops

    def counting(self):
        calls.append(len(self))
        return to_ops(self)

    monkeypatch.setattr(BatchTrace, "to_ops", counting)
    args = ["fig3", "--scale", str(1 / 64), "--ops-scale", "0.05",
            "--workloads", "CoMD", "mst", "snap",
            "--trace-cache", str(tmp_path / "traces"), "--no-registry"]
    assert cli.main(args) == 0
    cold = capsys.readouterr().out
    calls.clear()
    assert cli.main(args) == 0
    warm = capsys.readouterr().out
    assert calls == []

    def table(text):
        return [line for line in text.splitlines()
                if not line.startswith("[fig3:")]

    assert table(warm) == table(cold)


def test_serial_fig2_fig3_leaves_one_form_per_trace():
    """fig2 builds every trace's op list; fig3 then analyses columns
    built on the side instead of memoizing them onto the trace."""
    ctx = ExperimentContext(CFG, seed=1, ops_scale=0.05,
                            workloads=["CoMD", "mst"])
    figures.fig2(ctx)
    figures.fig3(ctx)
    traces = list(ctx.services.traces.values())
    assert len(traces) == 2
    for trace in traces:
        assert trace._ops is not None
        assert trace._batch is None

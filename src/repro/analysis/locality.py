"""Fig 3: intra-GPU locality of inter-GPU loads.

"Percentage of inter-GPU loads destined to addresses accessed by
another GPM in the same GPU."  This is a property of the *trace* under
first-touch placement, independent of the coherence protocol: for every
load whose system home is a peer GPU, we ask whether some other GPM of
the issuing GPU also touches that line anywhere in the run.  A high
percentage is exactly the locality HMG's GPU home nodes convert into
intra-GPU hits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig
from repro.core.types import OpType
from repro.memsys.address import AddressMap
from repro.memsys.page_table import PageTable, make_placement
from repro.trace.stream import replayable


@dataclass
class LocalityReport:
    """Result of the Fig 3 analysis for one workload trace."""

    workload: str
    inter_gpu_loads: int
    shareable_loads: int
    total_loads: int

    @property
    def shareable_fraction(self) -> float:
        """Fig 3's y-value for this workload."""
        if not self.inter_gpu_loads:
            return 0.0
        return self.shareable_loads / self.inter_gpu_loads

    @property
    def inter_gpu_fraction(self) -> float:
        if not self.total_loads:
            return 0.0
        return self.inter_gpu_loads / self.total_loads


def analyze_locality(trace, cfg: SystemConfig, workload: str = "trace",
                     placement: str = "first_touch") -> LocalityReport:
    """Run the Fig 3 analysis over a trace.

    Two passes: the first replays first-touch placement and records, per
    line, the set of (gpu, gpm) pairs that access it; the second counts
    inter-GPU loads and checks each against the per-GPU access sets.
    """
    amap = AddressMap.from_config(cfg)
    table = PageTable(cfg.page_size,
                      make_placement(placement, cfg.num_gpus,
                                     cfg.gpms_per_gpu))
    ops = replayable(trace)

    # Pass 1: placement + access sets (bitmask of GPMs per (gpu, line)).
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

    # Pass 2: classify inter-GPU loads.
    inter = 0
    shareable = 0
    total_loads = 0
    for op in ops:
        if op.op not in (OpType.LOAD, OpType.ACQUIRE):
            continue
        total_loads += 1
        line = amap.line_of(op.address)
        if owners[line].gpu == op.node.gpu:
            continue
        inter += 1
        mask = accessors[(op.node.gpu, line)]
        if mask & ~(1 << op.node.gpm):
            shareable += 1
    return LocalityReport(workload, inter, shareable, total_loads)

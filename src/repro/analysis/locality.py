"""Fig 3: intra-GPU locality of inter-GPU loads.

"Percentage of inter-GPU loads destined to addresses accessed by
another GPM in the same GPU."  This is a property of the *trace* under
first-touch placement, independent of the coherence protocol: for every
load whose system home is a peer GPU, we ask whether some other GPM of
the issuing GPU also touches that line anywhere in the run.  A high
percentage is exactly the locality HMG's GPU home nodes convert into
intra-GPU hits.

The analysis runs on the trace's :class:`~repro.trace.batch.BatchTrace`
columns, through the bit-identical array twins of the scalar address
and placement mappings in :mod:`repro.core.batchmap`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SystemConfig
from repro.core import batchmap
from repro.core.types import OpType
from repro.trace.batch import BatchTrace
from repro.trace.stream import Trace, replayable


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


def _columns(trace) -> BatchTrace:
    """``trace`` as columns.  A trace that holds only its ``MemOp``
    list gets them built on the side, not memoized, so it never ends up
    holding both forms."""
    batch = getattr(trace, "_batch", None)
    if batch is not None:
        return batch
    return BatchTrace.from_ops(
        trace.ops if isinstance(trace, Trace) else replayable(trace))


def analyze_locality(trace, cfg: SystemConfig, workload: str = "trace",
                     placement: str = "first_touch") -> LocalityReport:
    """Run the Fig 3 analysis over a trace (a :class:`Trace`, a
    ``MemOp`` sequence or a one-shot iterator).

    Every op but a kernel boundary places its page and marks its GPM in
    the bitmask of GPMs that access its (GPU, line).  A load or acquire
    is inter-GPU when its page lives on a peer GPU, and shareable when
    its (GPU, line) mask holds a GPM other than the issuer.
    """
    batch = _columns(trace)
    G = cfg.gpms_per_gpu
    kb = int(OpType.KERNEL_BOUNDARY)
    placed = batch.kind != kb
    kinds = batch.kind[placed]
    gpus, gpms = batch.gpu[placed], batch.gpm[placed]
    lines = batchmap.lines_of(batch.address[placed],
                              cfg.line_size.bit_length() - 1)
    pages = batchmap.pages_of_lines(lines, cfg.lines_per_page)
    upages, owners = batchmap.placement_owners(
        placement, pages, gpus * G + gpms, kinds, kb, cfg.num_gpus, G)
    home_gpu = batchmap.owners_of_pages(upages, owners, pages) // G

    # Bitmask of the GPMs that access each (GPU, line).
    bits = np.left_shift(1, gpms)
    keys, slot = np.unique(lines * cfg.num_gpus + gpus, return_inverse=True)
    masks = np.zeros(keys.size, np.int64)
    np.bitwise_or.at(masks, slot, bits)

    loads = (kinds == int(OpType.LOAD)) | (kinds == int(OpType.ACQUIRE))
    inter = loads & (home_gpu != gpus)
    shareable = np.count_nonzero(masks[slot[inter]] & ~bits[inter])
    return LocalityReport(workload, int(np.count_nonzero(inter)),
                          int(shareable), int(np.count_nonzero(loads)))

"""Workload specification and trace-generation machinery.

Real program traces are proprietary (Section VI), so each Table III
workload is modelled by a deterministic synthetic generator that
reproduces the axes the coherence protocols differentiate on: data
placement (first touch), intra-/inter-GPU read sharing, read-write
sharing and false sharing, scope usage, and kernel-boundary cadence.
See DESIGN.md, "Substitutions".

Region sizes are expressed relative to the configured cache capacities
so the paper's capacity-pressure *regimes* (working set vs. L2 vs.
directory coverage) survive the global ``scale`` factor.

Generation writes columns, never ``MemOp`` objects.  Each GPM's ops for
the open kernel accumulate in one Python list per field
(:class:`_Stream`); a strided span extends them a whole range at a time.
:meth:`GenContext.end_kernel` turns the kernel's streams into numpy
columns in round-robin order (:func:`~repro.trace.stream.interleave_order`)
and :meth:`GenContext.finish` returns a trace backed by
:class:`~repro.trace.batch.BatchTrace` columns, which the trace cache
packs and the vectorized engine reads as they are.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable

import numpy as np

from repro.config import SystemConfig
from repro.core.types import NodeId, OpType, Scope
from repro.memsys.address import AddressSpace, Region
from repro.trace.batch import BatchTrace
from repro.trace.stream import Trace, interleave_order

#: Pattern name -> generator function, populated by trace.patterns.
PATTERNS: dict = {}


def register_pattern(name: str):
    """Decorator registering a pattern generator under ``name``."""

    def wrap(fn: Callable):
        if name in PATTERNS:
            raise ValueError(f"pattern {name!r} already registered")
        PATTERNS[name] = fn
        return fn

    return wrap


@dataclass(frozen=True)
class WorkloadSpec:
    """One Table III benchmark, as synthesis parameters."""

    name: str  # full benchmark name, e.g. "ML RNN layer4 FW"
    abbrev: str  # figure label, e.g. "RNN_FW"
    suite: str  # cuSolver / HPC / Lonestar / ML / Rodinia
    footprint_mb: float  # paper-reported footprint (unscaled)
    pattern: str  # key into PATTERNS
    kernels: int  # dependent-kernel (or timestep) count
    ops_per_gpm_per_kernel: int  # trace budget knob
    params: dict = field(default_factory=dict)
    description: str = ""

    def generate(self, cfg: SystemConfig, seed: int = 0,
                 ops_scale: float = 1.0) -> Trace:
        """Synthesize this workload's trace for a given platform."""
        try:
            pattern = PATTERNS[self.pattern]
        except KeyError:
            raise ValueError(
                f"unknown pattern {self.pattern!r}; "
                f"registered: {sorted(PATTERNS)}"
            ) from None
        ctx = GenContext(cfg, self, seed=seed, ops_scale=ops_scale)
        pattern(ctx, self)
        return ctx.finish()


class _Stream:
    """One GPM's ops of the open kernel, one list per column."""

    __slots__ = ("kind", "address", "cta", "scope", "size")

    #: Column dtypes, as :class:`~repro.trace.batch.BatchTrace` holds them.
    DTYPES = {"kind": np.uint8, "address": np.uint64, "cta": np.int64,
              "scope": np.uint8, "size": np.int64}

    def __init__(self):
        self.kind: list = []
        self.address: list = []
        self.cta: list = []
        self.scope: list = []
        self.size: list = []

    def __len__(self) -> int:
        return len(self.kind)


class GenContext:
    """State and emission helpers shared by all pattern generators."""

    def __init__(self, cfg: SystemConfig, spec: WorkloadSpec,
                 seed: int = 0, ops_scale: float = 1.0):
        self.cfg = cfg
        self.spec = spec
        # zlib.crc32, not hash(): str hashes are randomized per process
        # (PYTHONHASHSEED), which would make traces — and every number
        # downstream of them — differ from run to run.
        self.rng = np.random.default_rng(
            (zlib.crc32(spec.abbrev.encode()) & 0xFFFF) * 65537 + seed
        )
        self.space = AddressSpace(cfg.page_size)
        self.nodes = [
            NodeId(g, m)
            for g in range(cfg.num_gpus)
            for m in range(cfg.gpms_per_gpu)
        ]
        self.ops_scale = ops_scale
        #: Sealed kernels and boundary markers, in trace order: each a
        #: list of (flat GPM, kind, address, cta, scope, size) columns.
        self._chunks: list = []
        self._streams = self._fresh_streams()
        n = self.n_gpms
        # Per-GPM boundary markers carry MemOp's defaults: cta 0, size 4.
        self._boundary = [
            np.arange(n), np.full(n, OpType.KERNEL_BOUNDARY, np.uint8),
            np.zeros(n, np.uint64), np.zeros(n, np.int64),
            np.full(n, Scope.SYS, np.uint8), np.full(n, 4, np.int64),
        ]
        self.kernels_emitted = 0

    # -- budget helpers ---------------------------------------------------

    @property
    def line(self) -> int:
        return self.cfg.line_size

    @property
    def n_gpms(self) -> int:
        return self.cfg.total_gpms

    def budget(self) -> int:
        """Per-GPM per-kernel op budget after scaling."""
        return max(8, int(self.spec.ops_per_gpm_per_kernel * self.ops_scale))

    def l2_lines_per_gpm(self) -> int:
        """L2 capacity of one GPM, in lines."""
        return self.cfg.l2_bytes_per_gpm // self.line

    def l2_lines_per_gpu(self) -> int:
        """L2 capacity of one GPU, in lines."""
        return self.cfg.l2_bytes_per_gpu // self.line

    def region_lines(self, frac_of_gpu_l2: float, minimum: int = 8) -> int:
        """Size a region as a fraction of one GPU's L2 capacity."""
        return max(minimum, int(self.l2_lines_per_gpu() * frac_of_gpu_l2))

    def alloc_lines(self, name: str, lines: int) -> Region:
        """Allocate a page-aligned region sized in cache lines."""
        return self.space.allocate(name, lines * self.line)

    # -- op emission -------------------------------------------------------

    def _fresh_streams(self) -> list:
        return [_Stream() for _ in range(self.n_gpms)]

    def _flat(self, node: NodeId) -> int:
        return node.gpu * self.cfg.gpms_per_gpu + node.gpm

    def _fits(self, region: Region, line_offset: int) -> bool:
        return (line_offset >= 0
                and region.base + line_offset * self.line < region.end)

    def emit(self, node: NodeId, op: OpType, region: Region,
             line_offset: int, cta: int = None, scope: Scope = Scope.CTA,
             size: int = None) -> None:
        """Append one op to a GPM's stream (region-relative line offset).

        Raises ``IndexError`` for an offset outside the region, and the
        ``ValueError`` a ``MemOp`` raises for a negative address or a
        non-positive size.
        """
        if not self._fits(region, line_offset):
            raise IndexError(
                f"line offset {line_offset} outside region {region.name!r}"
            )
        address = region.base + line_offset * self.line
        flat = self._flat(node)
        if cta is None:
            cta = flat
        if size is None:
            size = self.line
        if address < 0:
            raise ValueError("address must be non-negative")
        if size <= 0:
            raise ValueError("size must be positive")
        stream = self._streams[flat]
        stream.kind.append(int(op))
        stream.address.append(address)
        stream.cta.append(cta)
        stream.scope.append(int(scope))
        stream.size.append(size)

    def _span(self, node: NodeId, op: OpType, region: Region, start: int,
              count: int, stride: int, scope: Scope, size: int) -> None:
        """Append ``count`` ops at line offsets ``start + k * stride``."""
        if size is None:
            size = self.line
        last = start + (count - 1) * stride
        if count > 0 and not (region.base >= 0 and size > 0
                              and self._fits(region, start)
                              and self._fits(region, last)):
            # The end points do not vouch for every op: emit them one by
            # one, so a bad op raises exactly as a loop of emits would.
            for k in range(count):
                self.emit(node, op, region, start + k * stride,
                          scope=scope, size=size)
            return
        flat = self._flat(node)
        step = stride * self.line
        first = region.base + start * self.line
        stream = self._streams[flat]
        stream.kind += [int(op)] * count
        stream.address += (range(first, first + count * step, step)
                           if step else [first] * count)
        stream.cta += [flat] * count
        stream.scope += [int(scope)] * count
        stream.size += [size] * count

    def read_span(self, node: NodeId, region: Region, start: int,
                  count: int, stride: int = 1, scope: Scope = Scope.CTA,
                  size: int = None) -> None:
        """Sequential (strided) loads over ``count`` lines."""
        self._span(node, OpType.LOAD, region, start, count, stride, scope,
                   size)

    def write_span(self, node: NodeId, region: Region, start: int,
                   count: int, stride: int = 1, scope: Scope = Scope.CTA,
                   size: int = None) -> None:
        """Sequential (strided) stores over ``count`` lines."""
        self._span(node, OpType.STORE, region, start, count, stride, scope,
                   size)

    def random_lines(self, total_lines: int, count: int) -> np.ndarray:
        """Deterministic uniform line indices from the context's RNG."""
        return self.rng.integers(0, total_lines, size=count)

    # -- phase / kernel structure -----------------------------------------

    def _seal_streams(self) -> list:
        """The open kernel's ops as columns in round-robin order (see
        :func:`~repro.trace.stream.interleave_order`); starts new streams."""
        streams = self._streams
        lengths = [len(stream) for stream in streams]
        order = interleave_order(lengths)
        columns = [np.repeat(np.arange(self.n_gpms), lengths)[order]]
        for name, dtype in _Stream.DTYPES.items():
            values = chain.from_iterable(getattr(s, name) for s in streams)
            columns.append(np.fromiter(values, dtype, order.size)[order])
        self._streams = self._fresh_streams()
        return columns

    def end_kernel(self, boundary: bool = True) -> None:
        """Close the current kernel: interleave its per-GPM streams and
        (optionally) emit per-GPM kernel-boundary markers."""
        self._chunks.append(self._seal_streams())
        if boundary:
            self._chunks.append(self._boundary)
        self.kernels_emitted += 1

    def gpu_sync(self, sync_region: Region) -> None:
        """Explicit .gpu-scoped synchronization round: every GPM
        store-releases then load-acquires its GPU's flag.

        Flags live one per page (see patterns._alloc_sync) so each
        GPU's flag is homed on that GPU — padded and locally allocated,
        as real runtimes lay out synchronization variables.
        """
        lpp = self.cfg.lines_per_page
        for node in self.nodes:
            self.emit(node, OpType.RELEASE, sync_region, node.gpu * lpp,
                      scope=Scope.GPU, size=8)
            self.emit(node, OpType.ACQUIRE, sync_region, node.gpu * lpp,
                      scope=Scope.GPU, size=8)

    def sys_sync(self, sync_region: Region) -> None:
        """Explicit .sys-scoped synchronization round on a global flag."""
        lpp = self.cfg.lines_per_page
        for node in self.nodes:
            self.emit(node, OpType.RELEASE, sync_region,
                      self.cfg.num_gpus * lpp, scope=Scope.SYS, size=8)
            self.emit(node, OpType.ACQUIRE, sync_region,
                      self.cfg.num_gpus * lpp, scope=Scope.SYS, size=8)

    def finish(self) -> Trace:
        """Seal any open kernel and assemble the final trace."""
        if any(self._streams):
            self.end_kernel(boundary=False)
        chunks = self._chunks or [self._seal_streams()]
        flat, kind, address, cta, scope, size = (
            np.concatenate(column) for column in zip(*chunks)
        )
        gpu, gpm = np.divmod(flat, self.cfg.gpms_per_gpu)
        return Trace(
            name=self.spec.abbrev,
            batch=BatchTrace(kind, address, gpu, gpm, cta, scope, size),
            footprint_bytes=self.space.footprint,
            kernels=self.kernels_emitted,
            meta={
                "suite": self.spec.suite,
                "pattern": self.spec.pattern,
                "paper_footprint_mb": self.spec.footprint_mb,
            },
        )


def partition(total: int, parts: int, index: int) -> tuple:
    """(start, count) of slice ``index`` when ``total`` items are split
    contiguously into ``parts`` (CTA-contiguous data decomposition)."""
    if not 0 <= index < parts:
        raise IndexError(f"slice {index} of {parts}")
    base = total // parts
    extra = total % parts
    start = index * base + min(index, extra)
    count = base + (1 if index < extra else 0)
    return start, count

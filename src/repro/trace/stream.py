"""Trace containers.

A :class:`Trace` is a replayable sequence of :class:`~repro.core.types.MemOp`
plus metadata about the workload that produced it.  Traces model the
machine-wide interleaving of all GPMs' memory operations: per-GPM
streams are merged round-robin, which approximates the GPMs executing
concurrently at equal rates (all micro-scheduling is abstracted by the
timing engines anyway).

A trace holds its ops in one of two forms.  Generated and hand-built
traces start as a ``MemOp`` list.  Traces loaded from the binary trace
cache start as :class:`~repro.trace.batch.BatchTrace` columns, which is
all the vectorized engine reads; their ``MemOp`` list is built once,
on the first access to :attr:`Trace.ops`, iteration or indexing.
``len()`` never builds it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.core.types import MemOp, OpType


class Trace:
    """A named, replayable op sequence.

    Built from ``ops`` (a ``MemOp`` list) or from ``batch`` (columns);
    see the module docstring.
    """

    def __init__(self, name: str, ops: list = None,
                 footprint_bytes: int = 0, kernels: int = 0,
                 meta: dict = None, batch=None):
        if ops is None and batch is None:
            raise ValueError("a trace needs ops or columns")
        self.name = name
        self.footprint_bytes = footprint_bytes
        self.kernels = kernels
        self.meta = {} if meta is None else meta
        self._ops = ops
        #: Columnar form (:class:`repro.trace.batch.BatchTrace`): given
        #: by the cache loader, or memoized by ``as_batch()``.
        self._batch = batch

    @property
    def ops(self) -> list:
        """The ``MemOp`` list, built from the columns on first use."""
        if self._ops is None:
            self._ops = self._batch.to_ops()
        return self._ops

    def __iter__(self) -> Iterator[MemOp]:
        return iter(self.ops)

    def __len__(self) -> int:
        if self._ops is None:
            return len(self._batch)
        return len(self._ops)

    def __getitem__(self, index):
        return self.ops[index]

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, {len(self)} ops)"

    @property
    def loads(self) -> int:
        return sum(1 for op in self.ops if op.op == OpType.LOAD)

    @property
    def stores(self) -> int:
        return sum(1 for op in self.ops if op.op == OpType.STORE)

    @property
    def synchronizing_ops(self) -> int:
        return sum(1 for op in self.ops if op.op.is_synchronizing)

    def scoped_op_counts(self) -> dict:
        """Histogram of (op type, scope) pairs."""
        counts: dict = {}
        for op in self.ops:
            key = (op.op, op.scope)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def nodes(self) -> set:
        """The set of GPMs that issue at least one op."""
        return {op.node for op in self.ops}

    def describe(self) -> str:
        """One-line summary: ops, mix, kernels, footprint."""
        return (
            f"Trace {self.name!r}: {len(self)} ops "
            f"({self.loads} loads, {self.stores} stores, "
            f"{self.synchronizing_ops} sync), "
            f"{self.kernels} kernels, "
            f"footprint {self.footprint_bytes / (1 << 20):.1f} MiB"
        )


def interleave(streams: Sequence[Sequence[MemOp]],
               chunk: int = 4) -> list:
    """Merge per-GPM op streams round-robin, ``chunk`` ops at a time.

    Round-robin at a small chunk granularity models GPMs progressing at
    similar rates while keeping each GPM's own program order intact
    (which the coherence protocols rely on).
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    merged: list = []
    cursors = [0] * len(streams)
    remaining = sum(len(s) for s in streams)
    while remaining:
        for i, stream in enumerate(streams):
            take = min(chunk, len(stream) - cursors[i])
            if take <= 0:
                continue
            merged.extend(stream[cursors[i]:cursors[i] + take])
            cursors[i] += take
            remaining -= take
    return merged


def merge_phases(phases: Iterable[list]) -> list:
    """Concatenate already-interleaved kernel phases into one op list."""
    ops: list = []
    for phase in phases:
        ops.extend(phase)
    return ops
